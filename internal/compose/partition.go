// Package compose implements FastFlip-style compositional SDC estimation:
// per-segment error-injection profiles, measured once per (program, fault
// model, segment) on the checkpointed FI substrate, compose into a
// whole-program SDC estimate for ANY input under that input's dynamic
// execution mix. A candidate evaluation then costs one golden profile run
// plus an O(segments) composition — plus re-measurement only for segments
// whose dynamic fraction drifted past a threshold — instead of a fresh
// statistical campaign (PAPERS.md: FastFlip's per-section composition, Hari
// et al.'s two-level grouped estimator).
//
// Segments are functions when the module has enough of them to make a
// useful partition, else contiguous basic-block groups within functions
// (the repository's ten benchmarks are single-function kernels, so the
// block-group fallback is the path they exercise). Profiles carry Wilson
// intervals; composed estimates carry honest composed intervals built with
// the same interval-composition rule the adaptive stratified campaign uses.
package compose

import (
	"fmt"
	"hash/fnv"

	"repro/internal/interp"
	"repro/internal/ir"
)

const (
	// MinFuncSegments is the function count at which the partition uses
	// function granularity; below it, functions are split into block groups.
	MinFuncSegments = 4
	// DefaultBlockGroups is the target segment count for the block-group
	// fallback partition of a module.
	DefaultBlockGroups = 12
)

// Segment is one unit of the profile partition: a named, input-independent
// set of static instruction IDs (a whole function, or a contiguous run of
// basic blocks within one).
type Segment struct {
	// Name identifies the segment within its program and is part of the
	// profile cache key, so it must be stable across runs. Function
	// segments use the function name; block groups append a group index.
	Name string
	// Func is the containing function's name.
	Func string
	// Instrs holds the segment's static instruction IDs in ascending
	// order. Module.Finalize assigns IDs block-by-block in order, so each
	// segment's IDs are contiguous.
	Instrs []int
}

// Partition is the static profile partition of one program. It is a pure
// function of the IR module: same module, same partition, same cache keys.
type Partition struct {
	// Hash is the program identity — FNV-64a over the printed module — and
	// the leading component of every profile cache key, so structurally
	// different programs can never share profiles.
	Hash string
	// Granularity is "function" or "block-group".
	Granularity string
	// Segments covers every injectable static instruction exactly once.
	Segments []Segment
}

// NewPartition builds the profile partition for a compiled program.
func NewPartition(p *interp.Program) *Partition {
	m := p.Mod
	h := fnv.New64a()
	h.Write([]byte(ir.Print(m)))
	part := &Partition{Hash: fmt.Sprintf("%016x", h.Sum64())}

	withInstrs := 0
	for _, f := range m.Funcs {
		if funcInjectable(f) > 0 {
			withInstrs++
		}
	}
	if withInstrs >= MinFuncSegments {
		part.Granularity = "function"
		for _, f := range m.Funcs {
			ids := funcInstrIDs(f)
			if len(ids) == 0 {
				continue
			}
			part.Segments = append(part.Segments, Segment{Name: f.Name, Func: f.Name, Instrs: ids})
		}
	} else {
		part.Granularity = "block-group"
		part.Segments = blockGroups(m)
	}

	covered := 0
	for _, s := range part.Segments {
		covered += len(s.Instrs)
	}
	if covered != p.NumInstrs() {
		panic(fmt.Sprintf("compose: partition covers %d of %d instructions", covered, p.NumInstrs()))
	}
	return part
}

// funcInjectable counts a function's injectable static instructions.
func funcInjectable(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Injectable() {
				n++
			}
		}
	}
	return n
}

// funcInstrIDs collects a function's injectable static IDs in order.
func funcInstrIDs(f *ir.Function) []int {
	var ids []int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Injectable() {
				ids = append(ids, in.ID)
			}
		}
	}
	return ids
}

// blockGroups chunks each function's basic blocks, in order, into
// contiguous groups of roughly total/DefaultBlockGroups injectable
// instructions. Groups never span functions; every function with at least
// one injectable instruction contributes at least one group.
func blockGroups(m *ir.Module) []Segment {
	total := m.NumInstrs()
	target := (total + DefaultBlockGroups - 1) / DefaultBlockGroups
	if target < 1 {
		target = 1
	}
	var segs []Segment
	for _, f := range m.Funcs {
		var (
			ids      []int
			groupIdx int
		)
		flush := func() {
			if len(ids) == 0 {
				return
			}
			segs = append(segs, Segment{
				Name:   fmt.Sprintf("%s#%d", f.Name, groupIdx),
				Func:   f.Name,
				Instrs: ids,
			})
			groupIdx++
			ids = nil
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Injectable() {
					ids = append(ids, in.ID)
				}
			}
			// Close the group at a block boundary once the target is met,
			// keeping groups aligned to whole blocks.
			if len(ids) >= target {
				flush()
			}
		}
		flush()
	}
	return segs
}
