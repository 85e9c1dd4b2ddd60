package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

func denseOf(rows, cols int, vals ...float64) *mat.Dense {
	m := mat.NewDense(rows, cols)
	copy(m.Data(), vals)
	return m
}

// fullState builds a state exercising every section and nullable field.
func fullState() *engine.State {
	return &engine.State{
		Config: core.OnlineConfig{
			Config: core.Config{
				K: 3, Alpha: 0.05, Beta: 0.8, MaxIter: 40, Tol: -1,
				Seed: 17, LexiconInit: true, SparsityLambda: 0.1,
				GuidedTweetLabels: []int{-1, 0, 2},
			},
			Gamma: 0.2, Tau: 0.9, Window: 2,
		},
		Weighting:  text.TFIDF,
		MinDF:      2,
		LexiconHit: 0.8,
		Tokenizer:  text.TokenizerOptions{KeepHashtags: true, RemoveStopwords: true, MinTokenLen: 2},
		Lexicon:    map[string]int{"good": 0, "bad": 1},
		Frozen:     true,
		VocabWords: []string{"bad", "good", "prop37"},
		Sf0:        denseOf(3, 3, 0.1, 0.1, 0.8, 0.8, 0.1, 0.1, 1.0/3, 1.0/3, 1.0/3),
		Users:      []tgraph.User{{Name: "ann", Label: 0}, {Name: "bo", Label: tgraph.NoLabel}},
		Batches:    4,
		Skips:      1,
		Online: &core.OnlineState{
			RandDraws: 12345,
			LastHp:    denseOf(2, 2, 1, 0, 0, 1),
			LastHu:    denseOf(2, 2, 0.9, 0.1, 0.2, 0.8),
			SfHist: []core.SfSnapshotState{
				{Time: 3, Sf: denseOf(3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9), Seen: []bool{true, false, true}},
				{Time: 4, Sf: denseOf(3, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1), Seen: []bool{false, true, true}},
			},
			UserHist: []core.UserSnapshotState{
				{User: 0, Time: 3, Row: []float64{0.5, 0.25, 0.25}},
				{User: 7, Time: 3, Row: []float64{1, 0, 0}},
				{User: 7, Time: 4, Row: []float64{0, 1, 0}},
			},
		},
		LastFactors: &core.Factors{
			Sp: denseOf(1, 3, 0.2, 0.3, 0.5),
			Su: denseOf(2, 3, 1, 2, 3, 4, 5, 6),
			Sf: denseOf(3, 3, 1, 1, 1, 2, 2, 2, 3, 3, 3),
			Hp: denseOf(3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1),
			Hu: denseOf(3, 3, 2, 0, 0, 0, 2, 0, 0, 0, 2),
		},
		Epoch: 6,
	}
}

func TestRoundTrip(t *testing.T) {
	st := fullState()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", st, got)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	// A freshly created, never-processed topic: no freeze, no factors,
	// empty histories.
	st := &engine.State{
		Config:      core.OnlineConfig{Config: core.Config{K: 3, MaxIter: 100, Tol: 1e-4}, Tau: 0.9, Window: 2},
		LexiconHit:  0.8,
		MinDF:       2,
		VocabCounts: map[string]int{"warm": 1},
		VocabDocs:   1,
		Online:      &core.OnlineState{},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n got  %+v", st, got)
	}
}

// TestEpochSectionOptional pins the epoch section's compatibility story:
// epoch 0 (a topic that never changed shards) omits the section entirely,
// so such snapshots are byte-identical to those of pre-cluster builds —
// the golden fixture keeps passing without a version bump — while a
// non-zero epoch rides along and round-trips.
func TestEpochSectionOptional(t *testing.T) {
	withEpoch := fullState()
	withEpoch.Epoch = 9
	without := fullState()
	without.Epoch = 0

	var a, b bytes.Buffer
	if err := Encode(&a, withEpoch); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, without); err != nil {
		t.Fatal(err)
	}
	// tag byte + 8-byte size + 8-byte epoch.
	if want := b.Len() + 17; a.Len() != want {
		t.Fatalf("epoch section size: with=%d without=%d, want with = without+17", a.Len(), b.Len())
	}
	got, err := Decode(&a)
	if err != nil {
		t.Fatalf("Decode with epoch: %v", err)
	}
	if got.Epoch != 9 {
		t.Fatalf("epoch %d, want 9", got.Epoch)
	}
	got, err = Decode(&b)
	if err != nil {
		t.Fatalf("Decode without epoch: %v", err)
	}
	if got.Epoch != 0 {
		t.Fatalf("epoch %d, want 0", got.Epoch)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	var a, b bytes.Buffer
	if err := Encode(&a, fullState()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, fullState()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encoding of equal states differs")
	}
}

func TestSpecialFloatsSurvive(t *testing.T) {
	st := fullState()
	st.Sf0.Set(0, 0, math.Inf(1))
	st.Sf0.Set(0, 1, math.Copysign(0, -1))
	st.Sf0.Set(0, 2, 1e-308)
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Sf0.At(0, 0), 1) {
		t.Fatal("+Inf not preserved")
	}
	if math.Float64bits(got.Sf0.At(0, 1)) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("-0 not preserved bit-exactly")
	}
	if got.Sf0.At(0, 2) != 1e-308 {
		t.Fatal("subnormal-range value not preserved")
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fullState()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	wrongMagic := append([]byte(nil), data...)
	wrongMagic[0] = 'X'
	if _, err := Decode(bytes.NewReader(wrongMagic)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}

	wrongVersion := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(wrongVersion[8:10], Version+1)
	if _, err := Decode(bytes.NewReader(wrongVersion)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, fullState()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit at every offset past the version field; every mutation
	// must be rejected (payload flips fail the CRC, header/trailer flips
	// fail framing or the checksum comparison).
	for pos := 10; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x01
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at offset %d accepted", pos)
		}
	}
	for cut := 0; cut < len(data); cut += 11 {
		if _, err := Decode(bytes.NewReader(data[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: want ErrCorrupt", cut)
		}
	}
}

// TestHostileCountsRejected: a forged snapshot with a *valid* CRC but
// absurd element counts must fail with ErrCorrupt, not panic or allocate
// unboundedly (the length checks are overflow-safe).
func TestHostileCountsRejected(t *testing.T) {
	forge := func(mutate func(payload []byte)) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, fullState()); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		payload := append([]byte(nil), data[18:len(data)-4]...)
		mutate(payload)
		out := append([]byte(nil), data[:10]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	}
	// The vocab section (tag 3) starts with the frozen flag, then the
	// word-count prefix of the word list; the lexicon section (tag 2)
	// starts with its entry count. Overwrite each count with values whose
	// naive size products overflow uint64.
	for _, huge := range []uint64{1 << 61, 1<<64 - 1} {
		for _, tag := range []byte{tagLexicon, tagVocab} {
			data := forge(func(p []byte) {
				for i := 0; i < len(p); {
					secTag, size := p[i], binary.LittleEndian.Uint64(p[i+1:i+9])
					if secTag == tag {
						off := i + 9
						if tag == tagVocab {
							off++ // skip the frozen flag
						}
						binary.LittleEndian.PutUint64(p[off:], huge)
						return
					}
					if secTag == tagEnd {
						t.Fatal("section not found")
					}
					i += 9 + int(size)
				}
			})
			if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("tag %d count %d: got %v, want ErrCorrupt", tag, huge, err)
			}
		}
	}
	// Dense-matrix header with dimensions whose byte size overflows.
	data := forge(func(p []byte) {
		for i := 0; i < len(p); {
			secTag, size := p[i], binary.LittleEndian.Uint64(p[i+1:i+9])
			if secTag == tagFactors {
				// factors: Sp first → flag byte, rows, cols.
				binary.LittleEndian.PutUint64(p[i+10:], 1<<61)
				binary.LittleEndian.PutUint64(p[i+18:], 1<<61)
				return
			}
			if secTag == tagEnd {
				t.Fatal("factors section not found")
			}
			i += 9 + int(size)
		}
	})
	if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile matrix dims: got %v, want ErrCorrupt", err)
	}
}

// TestUnknownSectionSkipped: decoders must skip sections with unknown
// tags, the forward-compatibility half of the self-describing format.
func TestUnknownSectionSkipped(t *testing.T) {
	st := fullState()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	payload := data[18 : len(data)-4]
	if payload[len(payload)-1] != tagEnd {
		t.Fatal("payload does not end with the end tag")
	}

	// Splice an unknown section (tag 200) in front of the end tag.
	extra := []byte{200}
	extra = binary.LittleEndian.AppendUint64(extra, 3)
	extra = append(extra, 'x', 'y', 'z')
	newPayload := append(append([]byte(nil), payload[:len(payload)-1]...), extra...)
	newPayload = append(newPayload, tagEnd)

	var out bytes.Buffer
	out.Write(data[:8])
	out.Write(binary.LittleEndian.AppendUint16(nil, Version))
	out.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(newPayload))))
	out.Write(newPayload)
	out.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(newPayload, castagnoli)))

	got, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("snapshot with unknown section rejected: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("unknown section altered the decoded state")
	}
}

// TestUnknownRNGAlgorithmRejected: a recorded draw position is only
// replayable on the generator that produced it, so the online section's
// generator identifier must be one this build implements. The failure is
// version skew, not corruption — the intact file must ride the same
// recoverable paths (startup quarantine, stable error code) as an
// unknown format version.
func TestUnknownRNGAlgorithmRejected(t *testing.T) {
	var buf bytes.Buffer
	e := &encoder{w: &buf}
	e.bool(true)
	e.byte(rngSplitMix64 + 1)
	e.uint(5)
	d := &decoder{buf: buf.Bytes()}
	if _ = d.online(); d.err == nil {
		t.Fatal("unknown generator accepted")
	}
	if !errors.Is(d.err, ErrVersion) {
		t.Fatalf("error %v, want ErrVersion", d.err)
	}
}

// warmConformProfile builds a profile warmed past its MinSamples gate on
// a steady synthetic stream, so every counter and metric is non-zero.
func warmConformProfile() *conform.Profile {
	p := conform.NewProfile(conform.Params{})
	for i := 0; i < 12; i++ {
		obs := conform.Observation{
			Tweets: 12, Tokens: 36, OOVTokens: 0, OOVValid: true,
			MaxUserTweets: 1, Dups: 0,
			TimeStep: 1, StepValid: i > 0, TimeSpread: 0,
		}
		if v, ok := p.Score(obs); ok {
			p.Observe(obs, &v)
		} else {
			p.Observe(obs, nil)
		}
	}
	return p
}

// TestConformSectionOptional pins the conformance section's
// compatibility story, the same contract as the epoch section: a nil or
// never-observed profile omits the section entirely — snapshots of
// topics that predate the conformance gate (and of fresh topics) stay
// byte-identical to pre-gate builds — while a warmed profile rides along
// and round-trips bit-exactly.
func TestConformSectionOptional(t *testing.T) {
	var nilProf, zeroProf, warm bytes.Buffer
	if err := Encode(&nilProf, fullState()); err != nil {
		t.Fatal(err)
	}
	zp := fullState()
	zp.Conform = conform.NewProfile(conform.Params{})
	if err := Encode(&zeroProf, zp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilProf.Bytes(), zeroProf.Bytes()) {
		t.Fatal("zero profile must encode identically to no profile")
	}

	ws := fullState()
	ws.Conform = warmConformProfile()
	if err := Encode(&warm, ws); err != nil {
		t.Fatal(err)
	}
	if warm.Len() <= nilProf.Len() {
		t.Fatal("warm profile did not grow the snapshot")
	}
	got, err := Decode(bytes.NewReader(warm.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Conform == nil {
		t.Fatal("decoded state lost the profile")
	}
	if !bytes.Equal(got.Conform.AppendBinary(nil), ws.Conform.AppendBinary(nil)) {
		t.Fatal("profile did not round-trip bit-exactly")
	}
}

// TestConformSectionVersionSkew: a profile written by a future wire
// version inside an otherwise intact snapshot must surface as ErrVersion
// (the recoverable skew path — startup quarantine, stable error code),
// while structural damage to the section is ErrCorrupt.
func TestConformSectionVersionSkew(t *testing.T) {
	st := fullState()
	st.Conform = warmConformProfile()
	forge := func(mutate func(payload []byte)) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		payload := append([]byte(nil), data[18:len(data)-4]...)
		mutate(payload)
		out := append([]byte(nil), data[:10]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	}
	// mutateConform rewrites one byte at off within the conform section's
	// payload (off 0 is the profile wire version).
	mutateConform := func(off int, val byte) func([]byte) {
		return func(p []byte) {
			for i := 0; i < len(p); {
				tag, size := p[i], binary.LittleEndian.Uint64(p[i+1:i+9])
				if tag == tagConform {
					p[i+9+off] = val
					return
				}
				if tag == tagEnd {
					t.Fatal("conform section not found")
				}
				i += 9 + int(size)
			}
		}
	}
	if _, err := Decode(bytes.NewReader(forge(mutateConform(0, 9)))); !errors.Is(err, ErrVersion) {
		t.Fatalf("future profile version: got %v, want ErrVersion", err)
	}
	// Byte 73 is the metric count; an invariant-set mismatch is
	// corruption, not skew (the wire version pins the set).
	if _, err := Decode(bytes.NewReader(forge(mutateConform(73, 200)))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("metric-count damage: got %v, want ErrCorrupt", err)
	}
}

// TestUserHistOrderEnforced: the decoder accepts user history records
// only in strictly ascending id order, each with at least one row — the
// only layout an encoder writes — so a crafted snapshot cannot restore
// one user's rows twice or split them.
func TestUserHistOrderEnforced(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist []core.UserSnapshotState
	}{
		{"descending", []core.UserSnapshotState{
			{User: 7, Time: 3, Row: []float64{1, 0, 0}},
			{User: 0, Time: 3, Row: []float64{0.5, 0.25, 0.25}},
		}},
		{"split", []core.UserSnapshotState{
			{User: 0, Time: 3, Row: []float64{0.5, 0.25, 0.25}},
			{User: 7, Time: 3, Row: []float64{1, 0, 0}},
			{User: 0, Time: 4, Row: []float64{0, 1, 0}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := fullState()
			st.Online.UserHist = tc.hist
			var buf bytes.Buffer
			if err := Encode(&buf, st); err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(&buf); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode: %v, want ErrCorrupt", err)
			}
		})
	}
}

// wideState is a frozen k=3 state over a universe of n users, every one
// of them with a recorded estimate row.
func wideState(n int) *engine.State {
	st := fullState()
	st.Users = make([]tgraph.User, n)
	st.Online.UserHist = make([]core.UserSnapshotState, n)
	rows := make([]float64, 3*n)
	for u := range st.Users {
		st.Users[u] = tgraph.User{Name: "user", Label: tgraph.NoLabel}
		row := rows[3*u : 3*u+3 : 3*u+3]
		row[0], row[1], row[2] = float64(u), 0.5, 0.25
		st.Online.UserHist[u] = core.UserSnapshotState{User: u, Time: 4, Row: row}
	}
	return st
}

// TestEncodeAllocationBounded: Encode streams the snapshot, so the heap
// it allocates does not grow with the state — a 200k-user state (about
// 15 MB encoded) costs the same few buffers as a tiny one.
func TestEncodeAllocationBounded(t *testing.T) {
	const bound = 256 << 10
	st := wideState(200_000)
	var cw countingWriter
	if err := Encode(&cw, st); err != nil {
		t.Fatal(err)
	}
	allocated := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Encode(io.Discard, st); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Encode of a %d-byte snapshot allocated %d bytes", cw.n, allocated)
	if allocated > bound {
		t.Fatalf("Encode of a %d-byte snapshot allocated %d bytes, want at most %d", cw.n, allocated, bound)
	}
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
