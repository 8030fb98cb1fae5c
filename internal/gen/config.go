// Package gen synthesises Tier-1-ISP-like packet traces: the substitute
// for the proprietary CAIDA equinix-chicago captures the paper analyses.
//
// The generator is flow-based and event-driven. A population of
// long-lived sources with Zipf-distributed rates is drawn from a
// hierarchically structured dual-stack address space — IPv4
// organisations /8 → subnets /16 → networks /24 → hosts, mirrored on the
// IPv6 side one hextet per tier down to /64 subnets (Config.V6Fraction
// sets the family mix) — each source modulated by an on/off burst
// process and subject to lifetime churn. On top of that base load,
// short-lived high-rate pulses — flash events and attack-like bursts —
// fire at Poisson times with uniformly random phase relative to any
// window grid, which is exactly the traffic feature that produces hidden
// HHHs at disjoint-window boundaries.
//
// Everything is driven by a single seed: the same Config yields the same
// byte-identical trace, which keeps every experiment reproducible.
//
// Cost: New is O(Flows) — the Zipf normaliser is summed once — and each
// packet is O(log Flows), one sift of the event queue. A flow whose mean
// gap is too long for an int64 of nanoseconds never fires.
package gen

import (
	"errors"
	"fmt"
	"time"
)

// Config parameterises a synthetic trace. The zero value is not valid;
// start from DefaultConfig or a preset.
type Config struct {
	// Duration of the trace.
	Duration time.Duration
	// Seed drives all randomness.
	Seed int64

	// Flows is the number of concurrently live long-lived sources.
	Flows int
	// RateSkew is the Zipf exponent across source ranks (rate of rank i
	// proportional to 1/i^RateSkew). Around 1.0 matches the heavy-tailed
	// source distributions of backbone traces.
	RateSkew float64
	// MeanPacketRate is the target aggregate packet rate (pps) of the
	// long-lived population.
	MeanPacketRate float64

	// MeanFlowLifetime is the expected source lifetime before it dies and
	// is replaced by a fresh source (exponentially distributed). Zero
	// disables churn.
	MeanFlowLifetime time.Duration

	// BurstOn/BurstOff are the mean durations of a source's on and off
	// periods (exponentially distributed). Zero for either disables
	// modulation (sources always on).
	BurstOn  time.Duration
	BurstOff time.Duration

	// MicroburstFraction is the share of sources that burst at
	// sub-second scale instead of the BurstOn/BurstOff scale —
	// reproducing the short-timescale self-similarity of backbone
	// traffic. Those sources use MicroOn/MicroOff as their on/off means
	// and concentrate their volume into brief flights, the temporal
	// texture that makes window-edge effects (Figures 2 and 3) appear.
	MicroburstFraction float64
	MicroOn            time.Duration
	MicroOff           time.Duration

	// PulsesPerMinute is the expected rate of short heavy pulses (Poisson
	// arrivals, uniform phase). Zero disables pulses.
	PulsesPerMinute float64
	// PulseDuration bounds the uniform pulse length.
	PulseDurationMin, PulseDurationMax time.Duration
	// PulseShare bounds the uniform pulse intensity as a fraction of
	// MeanPacketRate (e.g. 0.1 = the pulse alone sends 10% of the base
	// aggregate rate while active).
	PulseShareMin, PulseShareMax float64

	// Address-space structure: Orgs top-level /8 organisations, each with
	// SubnetsPerOrg /16s, each with NetsPerSubnet /24s, each with
	// HostsPerNet addressable hosts. Popularity within each layer is
	// Zipf(AddrSkew) over a seeded random permutation, concentrating
	// traffic in a few subtrees like real backbone mixes.
	Orgs          int
	SubnetsPerOrg int
	NetsPerSubnet int
	HostsPerNet   int
	AddrSkew      float64

	// Servers is the size of the destination pool (per family).
	Servers int

	// V6Fraction is the share of sources (long-lived flows and pulses
	// alike) drawn from the IPv6 side of the address universe: 0 keeps
	// the trace IPv4-only, 1 makes it IPv6-only, anything between yields
	// a dual-stack mix with family-consistent destinations.
	V6Fraction float64
}

// DefaultConfig returns the base scenario used throughout the tests and
// experiments: a scaled-down Tier-1 mix that exhibits the paper's
// phenomena at laptop-friendly packet rates.
func DefaultConfig() Config {
	return Config{
		Duration:           time.Minute,
		Seed:               1,
		Flows:              1500,
		RateSkew:           1.05,
		MeanPacketRate:     5000,
		MeanFlowLifetime:   45 * time.Second,
		BurstOn:            4 * time.Second,
		BurstOff:           2 * time.Second,
		MicroburstFraction: 0.5,
		MicroOn:            100 * time.Millisecond,
		MicroOff:           600 * time.Millisecond,
		PulsesPerMinute:    10,
		PulseDurationMin:   150 * time.Millisecond,
		PulseDurationMax:   3 * time.Second,
		PulseShareMin:      0.05,
		PulseShareMax:      0.35,
		Orgs:               48,
		SubnetsPerOrg:      24,
		NetsPerSubnet:      24,
		HostsPerNet:        64,
		AddrSkew:           0.9,
		Servers:            512,
	}
}

// Tier1Day returns the scenario standing in for one of the paper's four
// one-hour CAIDA trace days: same structural parameters, different seed,
// with mild day-to-day variation in burstiness and pulse activity so the
// four "days" are not statistical clones.
func Tier1Day(day int, duration time.Duration) Config {
	c := DefaultConfig()
	c.Duration = duration
	c.Seed = int64(1000 + 77*day)
	switch day % 4 {
	case 1:
		c.BurstOn, c.BurstOff = 3*time.Second, 3*time.Second
		c.PulsesPerMinute = 8
	case 2:
		c.PulsesPerMinute = 4
		c.PulseShareMax = 0.18
	case 3:
		c.RateSkew = 1.15
		c.BurstOff = 1500 * time.Millisecond
	}
	return c
}

// DDoSScenario returns a base mix with a single scripted high-rate pulse
// (the examples use it to show a boundary-straddling attack).
func DDoSScenario(duration time.Duration, seed int64) Config {
	c := DefaultConfig()
	c.Duration = duration
	c.Seed = seed
	c.PulsesPerMinute = 2
	c.PulseShareMin, c.PulseShareMax = 0.15, 0.3
	c.PulseDurationMin, c.PulseDurationMax = time.Second, 3*time.Second
	return c
}

// ErrConfig reports an invalid generator configuration.
var ErrConfig = errors.New("gen: invalid configuration")

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("%w: duration %v", ErrConfig, c.Duration)
	case c.Flows <= 0:
		return fmt.Errorf("%w: flows %d", ErrConfig, c.Flows)
	case c.MeanPacketRate <= 0:
		return fmt.Errorf("%w: mean packet rate %v", ErrConfig, c.MeanPacketRate)
	case c.RateSkew < 0:
		return fmt.Errorf("%w: rate skew %v", ErrConfig, c.RateSkew)
	case (c.BurstOn == 0) != (c.BurstOff == 0):
		return fmt.Errorf("%w: BurstOn and BurstOff must both be set or both zero", ErrConfig)
	case c.BurstOn < 0 || c.BurstOff < 0:
		return fmt.Errorf("%w: negative burst durations", ErrConfig)
	case c.MicroburstFraction < 0 || c.MicroburstFraction > 1:
		return fmt.Errorf("%w: microburst fraction %v out of [0,1]", ErrConfig, c.MicroburstFraction)
	case c.MicroburstFraction > 0 && (c.MicroOn <= 0 || c.MicroOff <= 0):
		return fmt.Errorf("%w: microburst means must be positive", ErrConfig)
	case c.PulsesPerMinute < 0:
		return fmt.Errorf("%w: negative pulse rate", ErrConfig)
	case c.PulsesPerMinute > 0 && (c.PulseDurationMin <= 0 || c.PulseDurationMax < c.PulseDurationMin):
		return fmt.Errorf("%w: pulse durations [%v,%v]", ErrConfig, c.PulseDurationMin, c.PulseDurationMax)
	case c.PulsesPerMinute > 0 && (c.PulseShareMin <= 0 || c.PulseShareMax < c.PulseShareMin):
		return fmt.Errorf("%w: pulse shares [%v,%v]", ErrConfig, c.PulseShareMin, c.PulseShareMax)
	case c.Orgs <= 0 || c.SubnetsPerOrg <= 0 || c.NetsPerSubnet <= 0 || c.HostsPerNet <= 0:
		return fmt.Errorf("%w: address-space dimensions must be positive", ErrConfig)
	case c.Orgs > 190:
		return fmt.Errorf("%w: orgs %d exceeds available /8 space", ErrConfig, c.Orgs)
	case c.SubnetsPerOrg > 256 || c.NetsPerSubnet > 256 || c.HostsPerNet > 254:
		return fmt.Errorf("%w: per-layer sizes exceed octet space", ErrConfig)
	case c.Servers <= 0:
		return fmt.Errorf("%w: servers %d", ErrConfig, c.Servers)
	case c.AddrSkew < 0:
		return fmt.Errorf("%w: addr skew %v", ErrConfig, c.AddrSkew)
	case c.V6Fraction < 0 || c.V6Fraction > 1:
		return fmt.Errorf("%w: v6 fraction %v out of [0,1]", ErrConfig, c.V6Fraction)
	}
	return nil
}
