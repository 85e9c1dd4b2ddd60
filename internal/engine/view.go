package engine

import (
	"slices"

	"triclust/internal/conform"
	"triclust/internal/mat"
)

// ViewState is the convergence indicator of a published View: how much
// the served estimates should be trusted while batches are still
// streaming in (warm-up, backfill, journal or replica replay).
type ViewState string

const (
	// ViewWarming: the topic has not yet seen enough batches for the
	// temporal window to fill (or the vocabulary is not frozen); estimates
	// are first impressions.
	ViewWarming ViewState = "warming"
	// ViewConverging: estimates are still moving between batches by more
	// than SteadyDelta; an answer is served, with its delta, instead of
	// making the client wait for the stream to settle.
	ViewConverging ViewState = "converging"
	// ViewSteady: the last batch moved the published estimates by at most
	// SteadyDelta per matrix entry on average.
	ViewSteady ViewState = "steady"
)

// SteadyDelta is the mean per-entry estimate movement (between the two
// most recent views, over users known to both) at or below which a view
// reports ViewSteady.
const SteadyDelta = 0.005

// View is an immutable snapshot of everything a topic's read plane
// serves: per-user sentiment estimates, feature sentiments, counters,
// the stream fingerprint, the ownership epoch and a convergence
// indicator. A Session materializes one after every committed batch; the
// Topic publishes it with a single atomic pointer swap, so readers load
// a fully consistent view without taking any lock (RCU: readers never
// block writers, writers never wait for readers).
//
// A View and everything it references is frozen at publication. Readers
// must treat every field — slices included — as read-only. Consecutive
// views of one session share the user pages a batch did not touch.
type View struct {
	// Batches / Skips are the session's step counters at publication.
	Batches, Skips int
	// RandDraws is the solver's position in its replayable random stream;
	// (Batches, RandDraws) is the stream fingerprint. Two topics that
	// processed the same batches publish views with identical
	// fingerprints and identical estimates.
	RandDraws uint64
	// Epoch is the topic's ownership epoch (sharded deployments).
	Epoch uint64
	// LastTime / HasTime report the most recent non-empty batch time.
	LastTime int
	HasTime  bool
	// Frozen / VocabSize describe the vocabulary at publication.
	Frozen    bool
	VocabSize int
	// NumUsers is the fixed user-universe size; KnownUsers counts the
	// users with recorded history (see UserEstimate).
	NumUsers   int
	KnownUsers int
	K          int
	// Features labels the per-word rows of the most recent solve (nil
	// before the first one), in vocabulary feature-index order.
	Features []Sentiment
	// State / Delta are the convergence indicator: Delta is the mean
	// absolute per-entry change of the user estimates versus the previous
	// view (1 when there is no previous view to compare against), State
	// classifies it (see ViewState).
	State ViewState
	Delta float64
	// Conform summarizes the stream-conformance profile at publication
	// (learned invariants, verdict counters, drift trend).
	Conform *conform.Report

	// pages holds the users in blocks of pageSize: user u lives in
	// pages[u>>pageShift] at slot u&pageMask. A nil page has no known
	// user.
	pages []*page
	// origin / gen name the session and the BuildView call that built
	// the view (WithSkip and WithEpoch copies keep both), so the next
	// BuildView can tell whether only the users recorded since changed.
	origin *viewOrigin
	gen    uint64
}

// pageShift sets the users per page of a View (1<<pageShift): a batch
// clones the pages of its active users and shares the rest.
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is the read-plane state of pageSize consecutive users: the
// labeled estimate and known flag a read needs (fixed arrays, so a read
// costs one pointer load more than a flat slice), and the raw estimate
// rows (pageSize×K) the next view's Delta is computed against.
type page struct {
	est   [pageSize]Sentiment
	known [pageSize]bool
	rows  []float64
}

// viewOrigin identifies the Session a View was built by; only its
// address matters (the field keeps it from being zero-sized, which
// could give two origins one address).
type viewOrigin struct{ _ byte }

// UserEstimate returns the view's estimate for a user, or ok = false if
// the user had no recorded history when the view was published.
func (v *View) UserEstimate(user int) (Sentiment, bool) {
	if user < 0 || user >= v.NumUsers {
		return Sentiment{}, false
	}
	p := v.pages[user>>pageShift]
	if p == nil || !p.known[user&pageMask] {
		return Sentiment{}, false
	}
	return p.est[user&pageMask], true
}

// WithSkip returns a copy of v with one more skipped batch. A skipped
// (empty) batch changes no solver state, so estimates, fingerprint and
// convergence are carried over unchanged.
func (v *View) WithSkip() *View {
	c := *v
	c.Skips++
	return &c
}

// WithEpoch returns a copy of v owned at epoch e (hand-off and promotion
// republish the read plane through this without re-materializing it).
func (v *View) WithEpoch(e uint64) *View {
	c := *v
	c.Epoch = e
	return &c
}

// BuildView materializes the session's current results as an immutable
// View: the per-user estimates labeled exactly as UserEstimate labels
// them, the feature sentiments of sf (the most recent solve's Sf; nil
// before the first solve), counters and the stream fingerprint. prev is
// the previously published view (nil for the first), used to compute the
// convergence delta; epoch is stamped in verbatim.
//
// When prev is the view this session built last (or a WithSkip/WithEpoch
// copy of it), only the pages holding users recorded since are cloned
// and every other page is shared with prev, so the cost is
// O(batch users·pageSize·k + vocab) whatever the universe size. Any
// other prev (nil, another session's, an older view) takes a full
// O(knownUsers·k) build. Both paths publish bit-identical views.
func (s *Session) BuildView(sf *mat.Dense, prev *View, epoch uint64) *View {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &View{
		Batches:   s.batches,
		Skips:     s.skips,
		RandDraws: s.online.RandDraws(),
		Epoch:     epoch,
		NumUsers:  len(s.users),
		K:         s.online.Config().K,
	}
	if t, ok := s.online.LastTime(); ok {
		v.LastTime, v.HasTime = t, true
	}
	if vb := s.model.Vocabulary(); vb != nil {
		v.Frozen, v.VocabSize = true, vb.Len()
	}
	if sf != nil {
		v.Features = Label(sf)
	}
	v.Conform = s.prof.Report()
	if s.extends(prev) {
		s.patchPages(v, prev)
	} else {
		s.fillPages(v)
		v.Delta = viewDelta(v, prev)
	}
	v.State = viewState(v, s.online.Config().Window)
	if s.origin == nil {
		s.origin = &viewOrigin{}
	}
	s.viewGen++
	v.origin, v.gen = s.origin, s.viewGen
	s.recorded = s.recorded[:0]
	return v
}

// extends reports whether prev is (a copy of) the view this session
// built last, so the users recorded since are all that changed.
func (s *Session) extends(prev *View) bool {
	return prev != nil && s.origin != nil && prev.origin == s.origin && prev.gen == s.viewGen
}

// fillPages builds every page of v from the solver's user history.
func (s *Session) fillPages(v *View) {
	k := v.K
	v.pages = make([]*page, (v.NumUsers+pageMask)>>pageShift)
	s.online.VisitUserEstimates(func(u int, row []float64) {
		if u < 0 || u >= v.NumUsers || len(row) != k {
			return
		}
		p := v.pages[u>>pageShift]
		if p == nil {
			p = newPage(k)
			v.pages[u>>pageShift] = p
		}
		i := u & pageMask
		p.known[i] = true
		copy(p.rows[i*k:(i+1)*k], row)
		p.est[i] = LabelRow(row)
		v.KnownUsers++
	})
}

// patchPages builds v from prev, the view this session built last: the
// pages of the users recorded since are cloned and updated, every other
// page is shared. The Delta sum visits the recorded users in ascending
// order and counts every user known to prev, exactly as viewDelta's full
// scan does — an unrecorded user's row is unchanged and adds an exact
// +0.0, and users never lose their history, so "known to both" is
// "known to prev" — which keeps Delta bit-identical to a full rebuild.
func (s *Session) patchPages(v, prev *View) {
	k := v.K
	v.pages = prev.pages
	v.KnownUsers = prev.KnownUsers
	if len(s.recorded) > 0 {
		v.pages = slices.Clone(prev.pages)
	}
	slices.Sort(s.recorded)
	sum, pi := 0.0, -1
	var p *page
	for _, u := range slices.Compact(s.recorded) {
		row := s.online.LastUserRow(u)
		if u>>pageShift != pi {
			pi = u >> pageShift
			p = clonePage(prev.pages[pi], k)
			v.pages[pi] = p
		}
		i := u & pageMask
		dst := p.rows[i*k : (i+1)*k]
		if p.known[i] {
			for j, x := range row {
				d := x - dst[j]
				if d < 0 {
					d = -d
				}
				sum += d
			}
		} else {
			p.known[i] = true
			v.KnownUsers++
		}
		copy(dst, row)
		p.est[i] = LabelRow(row)
	}
	v.Delta = 1
	if cnt := prev.KnownUsers * k; cnt > 0 {
		v.Delta = sum / float64(cnt)
	}
}

func newPage(k int) *page { return &page{rows: make([]float64, pageSize*k)} }

// clonePage returns a private copy of p (an empty page when p is nil).
func clonePage(p *page, k int) *page {
	if p == nil {
		return newPage(k)
	}
	c := *p
	c.rows = slices.Clone(p.rows)
	return &c
}

// viewDelta is the mean absolute per-entry change of the user estimate
// rows between v and prev, over users known to both, scanning every
// user in ascending order. It is 1 (maximal) when there is nothing to
// compare against — no previous view, a different universe or class
// count, or no overlapping users.
func viewDelta(v, prev *View) float64 {
	if prev == nil || prev.K != v.K || prev.NumUsers != v.NumUsers {
		return 1
	}
	k := v.K
	sum, cnt := 0.0, 0
	for pi, p := range v.pages {
		q := prev.pages[pi]
		if p == nil || q == nil {
			continue
		}
		for i := range p.known {
			if !p.known[i] || !q.known[i] {
				continue
			}
			for j := i * k; j < (i+1)*k; j++ {
				d := p.rows[j] - q.rows[j]
				if d < 0 {
					d = -d
				}
				sum += d
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}

// viewState classifies a view's convergence: warming until the
// vocabulary froze and the temporal window filled, then steady once the
// last batch moved the estimates by at most SteadyDelta, converging in
// between.
func viewState(v *View, window int) ViewState {
	if window < 1 {
		window = 1
	}
	if !v.Frozen || v.Batches < window {
		return ViewWarming
	}
	if v.Delta <= SteadyDelta {
		return ViewSteady
	}
	return ViewConverging
}
