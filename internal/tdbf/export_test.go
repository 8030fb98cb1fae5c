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

// RestoreMasses restores f to st with the non-zero cells of masses, through
// the writer Restore returns.
func RestoreMasses(f *Filter, st FilterState, masses []float64) error {
	w, err := f.Restore(st)
	n := 0
	for i, v := range masses {
		if v != 0 && err == nil {
			err, n = w.Set(i, v), n+1
		}
	}
	if err == nil {
		err = w.Close(n)
	}
	return err
}

// Masses is masses, for the external tests.
func Masses(f *Filter) []float64 { return f.masses() }

// Store returns f's directory and pool, live.
func Store(f *Filter) (dir []uint32, pool [][LineCells]float64) { return f.dir, f.pool }
