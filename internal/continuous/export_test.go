package continuous

// Landmark returns the instant d's masses are scaled to without settling
// its block, as State would: a probe that leaves the state as it found it.
func Landmark(d *Detector) int64 { return d.total.State().Touch }
