module hiddenhhh/bench

go 1.22

require hiddenhhh v0.0.0

replace hiddenhhh => ../
