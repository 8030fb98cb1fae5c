package tdbf

// masses returns f's cells, masses scaled to its landmark, from a read of
// every cell through the directory.
func (f *Filter) masses() []float64 {
	m := make([]float64, f.cells)
	for i := range m {
		m[i] = f.cell(uint64(i))
	}
	return m
}

// Masses is masses, for the external tests.
func Masses(f *Filter) []float64 { return f.masses() }

// Store returns f's directory and pool, live.
func Store(f *Filter) (dir []uint32, pool [][LineCells]float64) { return f.dir, f.pool }
