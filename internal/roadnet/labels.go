package roadnet

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// HubLabel is a compact exact-distance sketch of one location: a list of
// (hub vertex, distance) pairs sorted by ascending hub id. Two locations'
// distance is the minimum of d_a(h) + d_b(h) over their common hubs — a
// linear merge of two short sorted arrays, no priority queue, no per-query
// graph traversal. Labels are produced by a LabelOracle (the hub-labeling
// backend in internal/roadnet/hl) and consumed by the batched refinement
// kernel below.
type HubLabel struct {
	Hubs []int32
	Dist []float64

	seeds [2]Seed // AttachLabel's scratch (see there)
}

// Len returns the number of (hub, distance) entries.
func (l *HubLabel) Len() int { return len(l.Hubs) }

// Reset empties the label, keeping capacity.
func (l *HubLabel) Reset() {
	l.Hubs = l.Hubs[:0]
	l.Dist = l.Dist[:0]
}

// append records one entry; construction keeps hubs sorted.
func (l *HubLabel) append(hub int32, d float64) {
	l.Hubs = append(l.Hubs, hub)
	l.Dist = append(l.Dist, d)
}

// labelPool recycles HubLabel buffers across queries: refinement computes
// one label per touched user per query and the entries are label-sized
// (tens of pairs), so pooling removes the only allocation on that path.
var labelPool = sync.Pool{New: func() any { return new(HubLabel) }}

// AcquireLabel returns an empty pooled label buffer. Release with
// ReleaseLabel when done.
func AcquireLabel() *HubLabel { return labelPool.Get().(*HubLabel) }

// ReleaseLabel resets l and returns it to the pool. l must not be used
// afterwards.
func ReleaseLabel(l *HubLabel) {
	l.Reset()
	labelPool.Put(l)
}

// LabelOracle is an optional extension of DistanceOracle implemented by
// hub-labeling backends. It exposes the labels themselves so callers with
// a repeated source-vs-fixed-target-set shape (the refinement hot path)
// can precompute the target side once and answer every source with a
// single sorted merge instead of a graph search per pair.
type LabelOracle interface {
	DistanceOracle

	// SeedLabel writes the merged hub label of the seed set into dst
	// (dst is reset first): entry (h, d) means the nearest seed reaches
	// hub h at exact distance d. Hubs ascend. For any target t,
	// min over common hubs of d + label_t(h) is the exact seed-to-t
	// distance. Must be safe for concurrent use.
	SeedLabel(seeds []Seed, dst *HubLabel)
}

// labelOracle returns the attached oracle when it exposes labels, nil
// otherwise.
func (g *Graph) labelOracle() LabelOracle {
	lo, _ := g.oracle.(LabelOracle)
	return lo
}

// HasLabels reports whether hub labels are available (the batched label
// kernel below): the attached oracle exposes them.
func (g *Graph) HasLabels() bool { return g.labelOracle() != nil }

// AttachLabel writes the hub label of attachment a into dst: the merged
// label of a's two edge endpoints offset by the along-edge distances. It
// reports false (leaving dst untouched) when no label oracle is attached.
// The seeds live in dst's own scratch: a slice literal would escape
// through the interface call and cost an allocation per label.
func (g *Graph) AttachLabel(a Attach, dst *HubLabel) bool {
	lo := g.labelOracle()
	if lo == nil {
		return false
	}
	u, v, du, dv := g.attachEnds(a)
	dst.seeds = [2]Seed{{Vertex: u, Dist: du}, {Vertex: v, Dist: dv}}
	lo.SeedLabel(dst.seeds[:], dst)
	return true
}

// LabelTable is a forward table of attachment hub labels: row i is the
// merged hub label of the i-th attachment (hubs strictly ascending),
// stored CSR. It is the prepared target side of both refinement kernels:
// RowDistsCk merges one source label against individual rows, and Flatten
// turns a row subset into the hub-sorted TargetLabels that LabelDists
// walks once per source. Rows are only ever appended; a table answers for
// the labels it was built from, until a road insert reports them stale
// (Graph.AddEdge). Reads are safe concurrently with each other, not
// with Append.
type LabelTable struct {
	atts []Attach
	off  []int64 // row i is hubs/dist[off[i]:off[i+1]]; len(atts)+1
	hubs []int32
	dist []float64
}

// NewLabelTable builds the label rows of atts (copied), or returns nil when
// no label oracle is attached.
func (g *Graph) NewLabelTable(atts []Attach) *LabelTable {
	if !g.HasLabels() {
		return nil
	}
	t := &LabelTable{atts: make([]Attach, 0, len(atts)), off: make([]int64, 1, len(atts)+1)}
	for _, a := range atts {
		t.Append(g, a)
	}
	// Exact-size the entry arrays: the table lives as long as its engine.
	t.hubs = append([]int32(nil), t.hubs...)
	t.dist = append([]float64(nil), t.dist...)
	return t
}

// Append adds the label row of a as row NumRows(). g must still serve the
// labels the table was built from.
func (t *LabelTable) Append(g *Graph, a Attach) {
	lbl := AcquireLabel()
	g.AttachLabel(a, lbl)
	t.atts = append(t.atts, a)
	t.hubs = append(t.hubs, lbl.Hubs...)
	t.dist = append(t.dist, lbl.Dist...)
	t.off = append(t.off, int64(len(t.hubs)))
	ReleaseLabel(lbl)
}

// NumRows returns the number of attachments in the table.
func (t *LabelTable) NumRows() int { return len(t.atts) }

// MemoryBytes returns the table's resident size; 0 for a nil table.
func (t *LabelTable) MemoryBytes() int64 {
	if t == nil {
		return 0
	}
	return int64(cap(t.atts))*16 + int64(cap(t.off))*8 + int64(cap(t.hubs))*4 + int64(cap(t.dist))*8
}

// CheckInvariants validates the CSR structure: one offset per row plus the
// end sentinel, offsets monotone and covering the entry arrays, hubs
// strictly ascending within each row.
func (t *LabelTable) CheckInvariants() error {
	if len(t.off) != len(t.atts)+1 || t.off[0] != 0 {
		return fmt.Errorf("roadnet: label table has %d offsets for %d rows (first %d)", len(t.off), len(t.atts), t.off[0])
	}
	if n := int(t.off[len(t.atts)]); n != len(t.hubs) || n != len(t.dist) {
		return fmt.Errorf("roadnet: label table offsets end at %d, entries hubs=%d dist=%d", n, len(t.hubs), len(t.dist))
	}
	for i := range t.atts {
		lo, hi := t.off[i], t.off[i+1]
		if hi < lo {
			return fmt.Errorf("roadnet: label table row %d has offsets %d > %d", i, lo, hi)
		}
		for j := lo + 1; j < hi; j++ {
			if t.hubs[j-1] >= t.hubs[j] {
				return fmt.Errorf("roadnet: label table row %d hubs not strictly ascending at entry %d", i, j)
			}
		}
	}
	return nil
}

// RowDistsCk computes dist_RN from the source attachment (hub label src,
// from AttachLabel) to each listed row: one two-pointer merge of src
// against the row, taking the minimum over the same d_src(h) + d_row(h)
// sums LabelDists takes over the flattened form, then the same same-edge
// direct route and bound clamp — so the two kernels agree bit for bit. Cost
// is proportional to len(rows)·|src| + Σ|row|, with no per-call
// preparation; that whole cost is charged to ck up front and a tripped
// checkpoint yields all-+Inf, as in LabelDistsCk. out must have length
// len(rows); it is returned filled. Allocation-free; ck may be nil.
func (g *Graph) RowDistsCk(src *HubLabel, srcAt Attach, t *LabelTable, rows []int32, bound float64, out []float64, ck *Checkpoint) []float64 {
	inf := math.Inf(1)
	if ck != nil {
		work := len(rows) * len(src.Hubs)
		for _, r := range rows {
			work += int(t.off[r+1] - t.off[r])
		}
		if ck.Spend(work) {
			for k := range out {
				out[k] = inf
			}
			return out
		}
	}
	for k, r := range rows {
		hubs, dist := t.hubs[t.off[r]:t.off[r+1]], t.dist[t.off[r]:t.off[r+1]]
		best := inf
		i, j := 0, 0
		for i < len(src.Hubs) && j < len(hubs) {
			switch {
			case src.Hubs[i] < hubs[j]:
				i++
			case src.Hubs[i] > hubs[j]:
				j++
			default:
				if d := src.Dist[i] + dist[j]; d < best {
					best = d
				}
				i++
				j++
			}
		}
		out[k] = g.finishAttachDist(srcAt, t.atts[r], best, bound)
	}
	return out
}

// TargetLabels is the batched, merge-ready form of a fixed set of target
// attachments: every target's hub label flattened into one array sorted by
// (hub, target), so a single simultaneous walk with a source label computes
// the distance to all targets at once — the k-way sorted merge of the
// refinement kernel. Build once per target set (LabelTable.Flatten), reuse
// for every source. Read-only after construction, so safe to share across
// refinement workers.
type TargetLabels struct {
	atts []Attach  // the targets, for the same-edge direct route
	hubs []int32   // ascending, runs of equal hubs span targets
	slot []int32   // hubs[i] belongs to target atts[slot[i]]
	dist []float64 // distance from target slot[i] to hub hubs[i]
}

// NumTargets returns the number of target attachments.
func (t *TargetLabels) NumTargets() int { return len(t.atts) }

// NumEntries returns the flattened entry count (Σ per-target label sizes).
func (t *TargetLabels) NumEntries() int { return len(t.hubs) }

// Flatten builds the merge-ready form of the listed rows; target slot k is
// row rows[k]. The (hub, slot) order comes from sorting packed
// hub<<32|slot keys — a row's hubs are distinct, so keys are too — and
// because each row is itself hub-ascending, walking the sorted keys visits
// every row front to back: a per-slot cursor finds each entry's distance
// without carrying it through the sort. All arrays are allocated at their
// exact final size.
func (t *LabelTable) Flatten(rows []int32) *TargetLabels {
	n := 0
	for _, r := range rows {
		n += int(t.off[r+1] - t.off[r])
	}
	keys := make([]uint64, 0, n)
	cur := make([]int64, len(rows))
	tl := &TargetLabels{
		atts: make([]Attach, len(rows)),
		hubs: make([]int32, n),
		slot: make([]int32, n),
		dist: make([]float64, n),
	}
	for k, r := range rows {
		tl.atts[k] = t.atts[r]
		cur[k] = t.off[r]
		for _, h := range t.hubs[t.off[r]:t.off[r+1]] {
			keys = append(keys, uint64(uint32(h))<<32|uint64(k))
		}
	}
	slices.Sort(keys)
	for i, key := range keys {
		k := int32(uint32(key))
		tl.hubs[i] = int32(key >> 32)
		tl.slot[i] = k
		tl.dist[i] = t.dist[cur[k]]
		cur[k]++
	}
	return tl
}

// PrepareTargetLabels precomputes the merged label structure for a batch of
// target attachments — their label rows, flattened — or nil when no label
// oracle is attached. The attachment slice is copied.
func (g *Graph) PrepareTargetLabels(atts []Attach) *TargetLabels {
	t := g.NewLabelTable(atts)
	if t == nil {
		return nil
	}
	rows := make([]int32, len(atts))
	for i := range rows {
		rows[i] = int32(i)
	}
	return t.Flatten(rows)
}

// LabelDists computes dist_RN from the source attachment (whose hub label
// is src, from AttachLabel) to every prepared target in one pass: the two
// hub-sorted arrays are walked simultaneously and each matching hub relaxes
// its target's running minimum. Same-edge direct routes are applied and
// distances beyond bound are reported as +Inf, matching DistAttachWithin.
// out must have length tl.NumTargets(); it is returned filled. Allocation-
// free, safe for concurrent use (all shared state is read-only).
func (g *Graph) LabelDists(src *HubLabel, srcAt Attach, tl *TargetLabels, bound float64, out []float64) []float64 {
	return g.LabelDistsCk(src, srcAt, tl, bound, out, nil)
}

// LabelDistsCk is LabelDists with a cooperative checkpoint. The merge work
// (source-label entries + flattened target entries walked) is charged up
// front — one Spend call per kernel invocation, keeping the merge loop
// itself branch-free — and a tripped checkpoint yields all-+Inf, never a
// partial merge. ck may be nil.
func (g *Graph) LabelDistsCk(src *HubLabel, srcAt Attach, tl *TargetLabels, bound float64, out []float64, ck *Checkpoint) []float64 {
	inf := math.Inf(1)
	for i := range out {
		out[i] = inf
	}
	if ck != nil && ck.Spend(len(src.Hubs)+len(tl.hubs)) {
		return out
	}
	i, j := 0, 0
	for i < len(src.Hubs) && j < len(tl.hubs) {
		switch {
		case src.Hubs[i] < tl.hubs[j]:
			i++
		case src.Hubs[i] > tl.hubs[j]:
			j++
		default:
			h, ds := src.Hubs[i], src.Dist[i]
			for ; j < len(tl.hubs) && tl.hubs[j] == h; j++ {
				if d := ds + tl.dist[j]; d < out[tl.slot[j]] {
					out[tl.slot[j]] = d
				}
			}
			i++
		}
	}
	for k, c := range tl.atts {
		out[k] = g.finishAttachDist(srcAt, c, out[k], bound)
	}
	return out
}
