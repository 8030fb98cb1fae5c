// Package hiddenhhh is a library for hierarchical heavy hitter (HHH)
// detection in network traffic and for studying what fixed-time disjoint
// measurement windows hide, reproducing Galea, Moore, Antichi, Bianchi and
// Bifulco, "Revealing Hidden Hierarchical Heavy Hitters in network
// traffic" (SIGCOMM Posters and Demos 2018).
//
// The package exposes three families of functionality:
//
//   - Detectors: windowed (disjoint, reset-per-window), sliding-window
//     (frame-ring WCSS or the level-sampled Memento-class engine, see
//     SlidingConfig.Engine), and continuous time-decaying HHH detection
//     over packet streams (see NewWindowedDetector, NewSlidingDetector,
//     NewContinuousDetector),
//     plus a sharded concurrent pipeline that parallelises ingest for any
//     of the three window models across hash-partitioned worker shards
//     and merges their summaries — at window closes for the windowed
//     model, at query time for the sliding and continuous ones (see
//     NewShardedDetector and ShardedConfig.Mode).
//   - Traffic: a seeded synthetic Tier-1 traffic generator (the stand-in
//     for the paper's proprietary CAIDA traces) with a dual-stack address
//     universe, binary trace files, and pcap interchange.
//   - Experiments: the paper's analyses — hidden-HHH quantification
//     (Figure 2), window-size sensitivity (Figure 3), and the
//     windowed-vs-continuous comparison (Section 3) — as reusable
//     functions returning structured results (cmd/hhheval's fig2, fig3
//     and section3 subcommands print them).
//
// Every detector is parameterised by a Hierarchy descriptor rather than a
// hard-coded prefix ladder: the paper's IPv4 byte ladder
// (NewIPv4Hierarchy(Byte), the default everywhere), the five-level IPv6
// hextet ladder (NewIPv6Hierarchy(Hextet)), or the 17-level IPv6 nibble
// lattice (NewIPv6Hierarchy(Nibble)) — the tall-hierarchy regime RHHH's
// constant-time updates were designed for. Detectors filter ingest by
// their hierarchy's address family, so a dual-stack stream can be fed to
// one detector per family without pre-splitting.
//
// Every detector additionally implements Accounting — the threshold
// denominator and covered time span behind each Snapshot — which is the
// surface the oracle-differential accuracy harness (internal/oracle,
// cmd/hhheval) uses to pin detector reports against a brute-force exact
// reference; see the README's Accuracy section for the bounds checked.
//
// All randomness is seed-driven; identical inputs reproduce identical
// outputs byte for byte.
package hiddenhhh

import (
	"hiddenhhh/internal/addr"
	"hiddenhhh/internal/core"
	"hiddenhhh/internal/gen"
	"hiddenhhh/internal/hhh"
	"hiddenhhh/internal/pcap"
	"hiddenhhh/internal/trace"
)

// Core value types, aliased from the implementation packages so that
// values flow freely between the public API and the rest of the module.
type (
	// Addr is a 128-bit dual-stack address; IPv4 addresses are carried in
	// the IPv4-mapped range and render as dotted quads.
	Addr = addr.Addr
	// Prefix is a canonical CIDR prefix over the unified address space.
	Prefix = addr.Prefix
	// Family identifies an address family (FamilyV4 or FamilyV6).
	Family = addr.Family
	// Hierarchy describes a uniform prefix-generalisation lattice over
	// one address family: the descriptor every detector consumes.
	Hierarchy = addr.Hierarchy
	// Granularity is the per-level bit step of a Hierarchy.
	Granularity = addr.Granularity
	// Packet is one observed packet record.
	Packet = trace.Packet
	// PacketSource yields packets in time order.
	PacketSource = trace.Source
	// Item is one reported hierarchical heavy hitter.
	Item = hhh.Item
	// Set is a set of reported HHHs keyed by prefix.
	Set = hhh.Set
)

// Hierarchy granularities.
const (
	// Bit steps one bit per level.
	Bit = addr.Bit
	// Nibble steps four bits per level (17 IPv6 levels to /64).
	Nibble = addr.Nibble
	// Byte steps eight bits per level, the paper's IPv4 convention.
	Byte = addr.Byte
	// Hextet steps sixteen bits per level (5 IPv6 levels to /64).
	Hextet = addr.Hextet
)

// Address families.
const (
	// FamilyV4 is IPv4 (IPv4-mapped in the unified space).
	FamilyV4 = addr.V4
	// FamilyV6 is native IPv6.
	FamilyV6 = addr.V6
)

// Address and prefix helpers, re-exported from the addr package. Both
// parse functions accept either family's textual form.
var (
	// ParseAddr parses a dotted-quad IPv4 or RFC 4291 IPv6 address.
	ParseAddr = addr.ParseAddr
	// MustParseAddr is ParseAddr that panics on error.
	MustParseAddr = addr.MustParseAddr
	// ParsePrefix parses CIDR notation in either family.
	ParsePrefix = addr.ParsePrefix
	// MustParsePrefix is ParsePrefix that panics on error.
	MustParsePrefix = addr.MustParsePrefix
	// NewIPv4Hierarchy builds the IPv4 /0../32 lattice at a granularity.
	NewIPv4Hierarchy = addr.NewIPv4Hierarchy
	// NewIPv6Hierarchy builds the IPv6 /0../64 lattice at a granularity.
	NewIPv6Hierarchy = addr.NewIPv6Hierarchy
	// NewIPv6HierarchyDepth builds an IPv6 lattice with a custom leaf
	// depth (at most /64).
	NewIPv6HierarchyDepth = addr.NewIPv6HierarchyDepth
	// NewHierarchy is the paper's default: the IPv4 lattice. Kept as the
	// short name because the byte ladder is what every experiment and
	// example starts from.
	NewHierarchy = addr.NewIPv4Hierarchy
)

// Threshold computes the absolute byte threshold for a fraction phi of
// totalBytes, as used throughout the HHH definitions.
func Threshold(totalBytes int64, phi float64) int64 { return hhh.Threshold(totalBytes, phi) }

// ExactHHH computes the exact HHH set of a finished aggregate: counts maps
// source addresses to byte volumes and T is the absolute threshold.
// Addresses outside h's family are ignored, matching the detectors'
// ingest filter.
func ExactHHH(counts map[Addr]int64, h Hierarchy, T int64) Set {
	return hhh.ExactFromCounts(counts, h, T)
}

// --- Traffic ---

// TraceConfig parameterises the synthetic Tier-1 traffic generator,
// including the dual-stack mix (TraceConfig.V6Fraction).
type TraceConfig = gen.Config

// DefaultTraceConfig returns the base synthetic scenario.
func DefaultTraceConfig() TraceConfig { return gen.DefaultConfig() }

// Tier1Day returns the scenario standing in for one of the paper's four
// CAIDA trace days.
var Tier1Day = gen.Tier1Day

// DDoSScenario returns a scenario with strong attack-like pulses.
var DDoSScenario = gen.DDoSScenario

// IPv6DDoSScenario returns the hit-and-run DDoS scenario with every
// source drawn from the IPv6 side of the address universe.
var IPv6DDoSScenario = gen.IPv6HitAndRunScenario

// DualStackScenario returns a half-IPv4, half-IPv6 pulsed mix.
var DualStackScenario = gen.DualStackScenario

// GenerateTrace synthesises the whole trace into memory.
func GenerateTrace(cfg TraceConfig) ([]Packet, error) { return gen.Packets(cfg) }

// NewTraceSource returns a streaming generator for cfg.
func NewTraceSource(cfg TraceConfig) (PacketSource, error) { return gen.New(cfg) }

// SliceSource replays an in-memory trace.
func SliceSource(pkts []Packet) PacketSource { return trace.NewSliceSource(pkts) }

// Trace file I/O (compact binary format) and pcap interchange.
var (
	// WriteTraceFile stores packets in the binary trace format (v2,
	// dual-stack records).
	WriteTraceFile = trace.WriteFile
	// ReadTraceFile loads a binary trace file (either format version).
	ReadTraceFile = trace.ReadFile
	// WritePcapFile stores packets as a pcap capture with synthesised
	// Ethernet+IPv4/IPv6 headers.
	WritePcapFile = pcap.WriteFile
	// ReadPcapFile loads every IP packet (either family) of a capture.
	ReadPcapFile = pcap.ReadFile
)

// --- Experiments ---

// Experiment configurations and results, aliased from the core package.
type (
	// HiddenHHHConfig parameterises the Figure-2 analysis.
	HiddenHHHConfig = core.HiddenHHHConfig
	// HiddenHHHResult is one (window, threshold) cell of Figure 2.
	HiddenHHHResult = core.HiddenHHHResult
	// SensitivityConfig parameterises the Figure-3 analysis.
	SensitivityConfig = core.SensitivityConfig
	// SensitivityResult is one trim line of Figure 3.
	SensitivityResult = core.SensitivityResult
	// ComparisonConfig parameterises the Section-3 evaluation.
	ComparisonConfig = core.ComparisonConfig
	// ComparisonOutcome bundles ground truth and detector reports.
	ComparisonOutcome = core.ComparisonOutcome
	// DetectorReport scores one detector.
	DetectorReport = core.DetectorReport
)

// Experiment runners and renderers. Each runner analyses a time-ordered
// in-memory trace, as GenerateTrace, ReadTraceFile and ReadPcapFile
// return one.
var (
	// RunHiddenHHH runs the Figure-2 hidden-HHH quantification.
	RunHiddenHHH = core.HiddenHHH
	// RenderHiddenHHH formats Figure-2 results as a table.
	RenderHiddenHHH = core.RenderHiddenHHH
	// RunWindowSensitivity runs the Figure-3 window-size sensitivity.
	RunWindowSensitivity = core.WindowSensitivity
	// RenderSensitivity formats Figure-3 results as a table.
	RenderSensitivity = core.RenderSensitivity
	// RunComparison runs the Section-3 windowed-vs-continuous evaluation.
	RunComparison = core.ContinuousComparison
	// RenderComparison formats the Section-3 table.
	RenderComparison = core.RenderComparison
)
