package core

import (
	"fmt"
	"slices"

	"triclust/internal/mat"
)

// countingSource is a seekable, draw-counting random source (SplitMix64),
// which makes the solver's random stream replayable: a restored solver
// re-seeds from Config.Seed and seeks to the recorded draw position, after
// which it emits exactly the values the original would have. Counting raw
// source draws (rather than high-level calls) is what makes this exact:
// every Float64/Intn the solver performs bottoms out in one Int63/Uint64
// draw here, regardless of which convenience method drew it.
//
// SplitMix64 is used instead of the standard library's source because its
// state after n draws is a closed form (init + n·γ), so seeking is O(1)
// for any position. Replaying draw-by-draw would let a crafted snapshot
// with RandDraws near 2⁶⁴ pin a CPU effectively forever during restore.
type countingSource struct {
	init  uint64 // state right after seeding (position zero)
	state uint64
	n     uint64
}

// splitmixGamma is SplitMix64's Weyl-sequence increment (the odd constant
// ⌊2⁶⁴/φ⌋); state advances by it on every draw, wrapping mod 2⁶⁴.
const splitmixGamma = 0x9E3779B97F4A7C15

// splitmix64 is the SplitMix64 output function (Steele, Lea & Flood 2014):
// a bijective scramble of the Weyl state.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newCountingSource(seed int64) *countingSource {
	s := &countingSource{}
	s.Seed(seed)
	return s
}

func (s *countingSource) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

func (s *countingSource) Uint64() uint64 {
	s.state += splitmixGamma
	s.n++
	return splitmix64(s.state)
}

func (s *countingSource) Seed(seed int64) {
	// Scramble the raw seed so nearby seeds (0, 1, 2, …) do not start in
	// states one Weyl step apart, which would make their streams overlap
	// with an offset of one draw.
	s.init = splitmix64(uint64(seed) * splitmixGamma)
	s.state = s.init
	s.n = 0
}

// skip seeks the source to absolute draw position n in constant time.
func (s *countingSource) skip(n uint64) {
	s.state = s.init + n*splitmixGamma
	s.n = n
}

// SfSnapshotState is the serializable form of one retained feature
// snapshot (Sf(t−i) with its evidence mask).
type SfSnapshotState struct {
	Time int
	Sf   *mat.Dense
	Seen []bool
}

// UserSnapshotState is the serializable form of one retained user row:
// user User's Su row of snapshot Time.
type UserSnapshotState struct {
	User int
	Time int
	Row  []float64
}

// OnlineState is the complete mutable state of an Online solver: the
// temporal history that feeds Sfw/Suw, the warm-start association cores,
// and the position in the seeded random stream. Together with the
// solver's OnlineConfig it determines every future Step bit-for-bit (at a
// fixed kernel parallelism width), which is what makes durable
// snapshot/restore of a stream possible.
type OnlineState struct {
	// RandDraws is the number of raw draws consumed from the seeded
	// source so far; restore replays the stream to this position.
	RandDraws uint64
	// LastHp / LastHu warm-start the association cores (nil before the
	// first step).
	LastHp, LastHu *mat.Dense
	// SfHist holds the retained feature snapshots, oldest first.
	SfHist []SfSnapshotState
	// UserHist holds the retained Su rows of every user with history,
	// grouped by global user id in ascending id order (each user's rows
	// oldest first).
	UserHist []UserSnapshotState
}

// ExportState deep-copies the solver's mutable state. The solver remains
// usable; the returned state is independent of later Steps.
func (o *Online) ExportState() *OnlineState {
	st := &OnlineState{RandDraws: o.src.n}
	if o.lastHp != nil {
		st.LastHp = o.lastHp.Clone()
		st.LastHu = o.lastHu.Clone()
	}
	st.SfHist = make([]SfSnapshotState, len(o.sfHist))
	for i, s := range o.sfHist {
		st.SfHist[i] = SfSnapshotState{
			Time: s.time,
			Sf:   s.sf.Clone(),
			Seen: append([]bool(nil), s.seen...),
		}
	}
	// The rows of every user share one slab, so the export costs a few
	// large allocations whatever the number of users.
	ids := make([]int, 0, len(o.userHist))
	entries, floats := 0, 0
	for g, hist := range o.userHist {
		ids = append(ids, g)
		entries += len(hist)
		for _, h := range hist {
			floats += len(h.row)
		}
	}
	slices.Sort(ids)
	st.UserHist = make([]UserSnapshotState, 0, entries)
	slab := make([]float64, floats)
	for _, g := range ids {
		for _, h := range o.userHist[g] {
			row := slab[:len(h.row):len(h.row)]
			slab = slab[len(h.row):]
			copy(row, h.row)
			st.UserHist = append(st.UserHist, UserSnapshotState{User: g, Time: h.time, Row: row})
		}
	}
	return st
}

// NewOnlineFromState rebuilds a solver that continues exactly where the
// exported one stopped: same configuration, same history, and the seeded
// random stream fast-forwarded to the recorded position. The state is
// deep-copied.
func NewOnlineFromState(cfg OnlineConfig, st *OnlineState) (*Online, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil online state")
	}
	if (st.LastHp == nil) != (st.LastHu == nil) {
		return nil, fmt.Errorf("core: inconsistent warm-start cores in state")
	}
	o := NewOnline(cfg)
	k := o.cfg.K
	// A snapshot's checksum only proves the bytes arrived intact, not that
	// the state is coherent; every shape the solver will later feed to a
	// kernel is validated here so a crafted snapshot fails the restore, not
	// a panic inside Step.
	if st.LastHp != nil {
		if !st.LastHp.Dims(k, k) || !st.LastHu.Dims(k, k) {
			return nil, fmt.Errorf("core: warm-start cores are %dx%d / %dx%d, want %dx%d",
				st.LastHp.Rows(), st.LastHp.Cols(), st.LastHu.Rows(), st.LastHu.Cols(), k, k)
		}
	}
	o.src.skip(st.RandDraws)
	if st.LastHp != nil {
		o.lastHp = st.LastHp.Clone()
		o.lastHu = st.LastHu.Clone()
	}
	o.sfHist = make([]sfSnapshot, len(st.SfHist))
	for i, s := range st.SfHist {
		if s.Sf == nil {
			return nil, fmt.Errorf("core: feature snapshot %d has no matrix", i)
		}
		if s.Sf.Cols() != k {
			return nil, fmt.Errorf("core: feature snapshot %d has %d columns, want k=%d", i, s.Sf.Cols(), k)
		}
		if i > 0 && st.SfHist[0].Sf.Rows() != s.Sf.Rows() {
			return nil, fmt.Errorf("core: feature snapshot %d has %d rows, snapshot 0 has %d",
				i, s.Sf.Rows(), st.SfHist[0].Sf.Rows())
		}
		if len(s.Seen) != s.Sf.Rows() {
			return nil, fmt.Errorf("core: feature snapshot %d has %d seen flags for %d rows",
				i, len(s.Seen), s.Sf.Rows())
		}
		if i > 0 && st.SfHist[i-1].Time >= s.Time {
			return nil, fmt.Errorf("core: feature history times not increasing at %d", i)
		}
		o.sfHist[i] = sfSnapshot{
			time: s.Time,
			sf:   s.Sf.Clone(),
			seen: append([]bool(nil), s.Seen...),
		}
	}
	for i, h := range st.UserHist {
		if len(h.Row) != k {
			return nil, fmt.Errorf("core: user %d history row has %d entries, want k=%d", h.User, len(h.Row), k)
		}
		if i > 0 && st.UserHist[i-1].User > h.User {
			return nil, fmt.Errorf("core: user history not in ascending user order at user %d", h.User)
		}
		o.userHist[h.User] = append(o.userHist[h.User], userSnapshot{time: h.Time, row: append([]float64(nil), h.Row...)})
	}
	return o, nil
}
