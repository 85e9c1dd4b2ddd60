// Package codec serializes the full state of a topic — vocabulary, Sf0
// prior, solver factors and history, user universe, timestamps and
// configuration (an engine.State) — into a self-describing, versioned
// binary snapshot, and restores it.
//
// # Format
//
// A snapshot is:
//
//	magic    [8]byte  "TRICSNAP"
//	version  uint16   format version (currently 2)
//	length   uint64   payload length in bytes
//	payload  [length]byte
//	crc      uint32   CRC-32C (Castagnoli) of the payload
//
// The payload is a sequence of tagged sections, each
//
//	tag      uint8    section identifier
//	size     uint64   body length in bytes
//	body     [size]byte
//
// terminated by tag 0. Decoders skip sections with unknown tags, so later
// format versions can add sections without breaking version-1 readers;
// removing or reshaping an existing section requires a version bump.
// All integers are little-endian; floats are IEEE-754 bit patterns;
// strings and slices are length-prefixed. Map sections are written in
// sorted key order, so encoding is deterministic: equal states produce
// byte-identical snapshots.
//
// The online section names the solver's random generator alongside the
// recorded stream position, because a draw position is only replayable on
// the generator that produced it; decoders reject snapshots recorded
// against a generator they do not implement.
//
// Integrity is checked before any payload parsing: a snapshot whose CRC,
// magic, version or framing does not match is rejected with ErrCorrupt /
// ErrBadMagic / ErrVersion, never partially applied.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"triclust/internal/conform"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/mat"
	"triclust/internal/text"
	"triclust/internal/tgraph"
)

// Version is the current snapshot format version. Version 2 inserted the
// random-generator identifier into the online section when the solver's
// PRNG moved to SplitMix64; version-1 snapshots recorded stream positions
// of a different generator and are rejected with ErrVersion rather than
// replayed on the wrong stream.
const Version = 2

var magic = [8]byte{'T', 'R', 'I', 'C', 'S', 'N', 'A', 'P'}

// maxPayload bounds the payload length a decoder will accept, guarding
// against absurd allocations from a corrupted or hostile length field.
const maxPayload = 1 << 31

var (
	// ErrBadMagic marks input that is not a triclust snapshot at all.
	ErrBadMagic = errors.New("codec: not a triclust snapshot (bad magic)")
	// ErrVersion marks a snapshot written by an unknown format version.
	ErrVersion = errors.New("codec: unsupported snapshot version")
	// ErrCorrupt marks a snapshot that fails the checksum or framing.
	ErrCorrupt = errors.New("codec: corrupt snapshot")
)

// Section tags of the snapshot format. Tags 1–7 are unchanged since
// version 1; tagEpoch and tagConform were added within version 2 as
// optional sections (absent = epoch 0 / empty conformance profile),
// which older version-2 readers skip by the unknown-tag rule.
const (
	tagEnd     = 0
	tagConfig  = 1
	tagLexicon = 2
	tagVocab   = 3
	tagUsers   = 4
	tagCounter = 5
	tagOnline  = 6
	tagFactors = 7
	tagEpoch   = 8
	tagConform = 9
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rngSplitMix64 identifies the solver's random generator in the online
// section. The recorded stream position is only meaningful for the exact
// generator that produced it, so the algorithm is part of the format
// contract: replacing the solver's PRNG requires a new identifier here,
// and decoders reject identifiers they do not implement instead of
// silently continuing a stream with different random values.
const rngSplitMix64 = 1

// Encode writes st as a versioned binary snapshot to w. It streams: a
// counting pass sizes every section (the header and each section carry
// their length up front), then the sections are encoded once more
// through one bufio.Writer whose flushes feed the CRC-32C, so the
// payload is never held in memory whole.
func Encode(w io.Writer, st *engine.State) error {
	if st == nil {
		return errors.New("codec: nil state")
	}
	secs := sections(st)
	count := &encoder{}
	payload := int64(1) // tagEnd
	for i := range secs {
		start := count.n
		secs[i].body(count)
		secs[i].size = count.n - start
		payload += 1 + 8 + secs[i].size
	}

	var hdr [18]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], Version)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var crc uint32
	bw := bufio.NewWriterSize(&crcTee{w: w, crc: &crc}, 64<<10)
	enc := &encoder{w: bw}
	for _, sec := range secs {
		enc.byte(sec.tag)
		enc.uint(uint64(sec.size))
		start := enc.n
		sec.body(enc)
		if enc.err == nil && enc.n-start != sec.size {
			return fmt.Errorf("codec: section %d encoded to %d bytes, sized at %d", sec.tag, enc.n-start, sec.size)
		}
	}
	enc.byte(tagEnd)
	if enc.err != nil {
		return enc.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	_, err := w.Write(trailer[:])
	return err
}

// section is one tagged payload section; body must write the same bytes
// every time it runs (Encode runs it twice: to size it, then to write it).
type section struct {
	tag  byte
	body func(*encoder)
	size int64
}

// sections lists st's payload sections in format order.
func sections(st *engine.State) []section {
	secs := []section{
		{tag: tagConfig, body: func(e *encoder) { e.config(st.Config, st) }},
		{tag: tagLexicon, body: func(e *encoder) { e.stringIntMap(st.Lexicon) }},
		{tag: tagVocab, body: func(e *encoder) {
			e.bool(st.Frozen)
			e.stringSlice(st.VocabWords)
			e.dense(st.Sf0)
			e.stringIntMap(st.VocabCounts)
			e.uint(uint64(st.VocabDocs))
		}},
		{tag: tagUsers, body: func(e *encoder) {
			e.uint(uint64(len(st.Users)))
			for _, u := range st.Users {
				e.string(u.Name)
				e.int(int64(u.Label))
			}
		}},
		{tag: tagCounter, body: func(e *encoder) {
			e.uint(uint64(st.Batches))
			e.uint(uint64(st.Skips))
		}},
		{tag: tagOnline, body: func(e *encoder) { e.online(st.Online) }},
	}
	if st.LastFactors != nil {
		secs = append(secs, section{tag: tagFactors, body: func(e *encoder) { e.factors(st.LastFactors) }})
	}
	// The ownership epoch is written only when set, so snapshots of
	// never-moved topics stay byte-identical to pre-cluster builds (and to
	// the golden fixture). Determinism holds either way: equal states make
	// equal include-or-omit decisions.
	if st.Epoch != 0 {
		secs = append(secs, section{tag: tagEpoch, body: func(e *encoder) { e.uint(st.Epoch) }})
	}
	// Same rule for the conformance profile: an empty default profile is
	// omitted, so pre-conformance snapshots and snapshots of fresh topics
	// keep their exact bytes. The profile owns its wire format (versioned
	// separately inside the section body, see internal/conform/wire.go).
	if st.Conform != nil && !st.Conform.IsZero() {
		prof := st.Conform.AppendBinary(nil)
		secs = append(secs, section{tag: tagConform, body: func(e *encoder) { e.write(prof) }})
	}
	return secs
}

// Decode reads one snapshot from r and reconstructs the engine state. The
// payload checksum is verified before any field is parsed.
func Decode(r io.Reader) (*engine.State, error) {
	var hdr [18]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != Version {
		return nil, fmt.Errorf("%w: snapshot is version %d, this build reads %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[10:18])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, n)
	}
	var payload bytes.Buffer
	copied, err := io.Copy(&payload, io.LimitReader(r, int64(n)))
	if err != nil || uint64(copied) != n {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, copied, n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrCorrupt)
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	if got := crc32.Checksum(payload.Bytes(), castagnoli); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (payload %08x, trailer %08x)", ErrCorrupt, got, want)
	}

	dec := &decoder{buf: payload.Bytes()}
	st := &engine.State{}
	seen := map[byte]bool{}
	for {
		tag := dec.byte()
		if dec.err != nil {
			return nil, dec.err
		}
		if tag == tagEnd {
			break
		}
		size := dec.uint()
		body := dec.bytes(size)
		if dec.err != nil {
			return nil, dec.err
		}
		if seen[tag] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, tag)
		}
		seen[tag] = true
		sd := &decoder{buf: body}
		switch tag {
		case tagConfig:
			sd.config(&st.Config, st)
		case tagLexicon:
			st.Lexicon = sd.stringIntMap()
		case tagVocab:
			st.Frozen = sd.bool()
			st.VocabWords = sd.stringSlice()
			st.Sf0 = sd.dense()
			st.VocabCounts = sd.stringIntMap()
			st.VocabDocs = int(sd.uint())
		case tagUsers:
			st.Users = sd.users()
		case tagCounter:
			st.Batches = int(sd.uint())
			st.Skips = int(sd.uint())
		case tagOnline:
			st.Online = sd.online()
		case tagFactors:
			st.LastFactors = sd.factors()
		case tagEpoch:
			st.Epoch = sd.uint()
		case tagConform:
			p, err := conform.DecodeProfile(sd.buf)
			if err != nil {
				// An unimplemented profile wire version is version skew
				// (intact snapshot, newer writer), not corruption.
				if errors.Is(err, conform.ErrProfileVersion) {
					return nil, fmt.Errorf("%w: %v", ErrVersion, err)
				}
				return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, tag, err)
			}
			st.Conform = p
			sd.buf = nil
		default:
			// Unknown section from a newer minor revision: skip.
			continue
		}
		if sd.err != nil {
			return nil, fmt.Errorf("section %d: %w", tag, sd.err)
		}
		if len(sd.buf) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in section %d", ErrCorrupt, len(sd.buf), tag)
		}
	}
	for _, tag := range []byte{tagConfig, tagLexicon, tagVocab, tagUsers, tagCounter, tagOnline} {
		if !seen[tag] {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, tag)
		}
	}
	return st, nil
}

// ——— encoder ———

// encoder writes the format's primitives to w, or only counts their
// bytes when w is nil (Encode's sizing pass). Fixed-width fields go
// through the scratch array, so encoding allocates nothing per field.
type encoder struct {
	w       io.Writer
	n       int64 // bytes written (or counted) so far
	err     error
	scratch [8]byte
}

func (e *encoder) write(p []byte) {
	e.n += int64(len(p))
	if e.w != nil && e.err == nil {
		_, e.err = e.w.Write(p)
	}
}

func (e *encoder) byte(b byte) {
	e.scratch[0] = b
	e.write(e.scratch[:1])
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) uint(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:], v)
	e.write(e.scratch[:])
}

func (e *encoder) int(v int64) { e.uint(uint64(v)) }

func (e *encoder) float(v float64) { e.uint(math.Float64bits(v)) }

func (e *encoder) string(s string) {
	e.uint(uint64(len(s)))
	e.n += int64(len(s))
	if e.w != nil && e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *encoder) stringSlice(ss []string) {
	e.uint(uint64(len(ss)))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *encoder) floats(fs []float64) {
	e.uint(uint64(len(fs)))
	for _, f := range fs {
		e.float(f)
	}
}

func (e *encoder) ints(vs []int) {
	e.uint(uint64(len(vs)))
	for _, v := range vs {
		e.int(int64(v))
	}
}

func (e *encoder) bools(bs []bool) {
	e.uint(uint64(len(bs)))
	for _, b := range bs {
		e.bool(b)
	}
}

// stringIntMap writes entries in sorted key order for determinism.
func (e *encoder) stringIntMap(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uint(uint64(len(keys)))
	for _, k := range keys {
		e.string(k)
		e.int(int64(m[k]))
	}
}

func (e *encoder) dense(m *mat.Dense) {
	if m == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.uint(uint64(m.Rows()))
	e.uint(uint64(m.Cols()))
	for _, v := range m.Data() {
		e.float(v)
	}
}

func (e *encoder) config(c core.OnlineConfig, st *engine.State) {
	e.uint(uint64(c.K))
	e.float(c.Alpha)
	e.float(c.Beta)
	e.uint(uint64(c.MaxIter))
	e.float(c.Tol)
	e.int(c.Seed)
	e.bool(c.LexiconInit)
	e.float(c.SparsityLambda)
	e.float(c.DiversityLambda)
	e.float(c.GuidedLambda)
	e.ints(c.GuidedTweetLabels)
	e.ints(c.GuidedUserLabels)
	e.float(c.Gamma)
	e.float(c.Tau)
	e.uint(uint64(c.Window))
	e.uint(uint64(st.Weighting))
	e.uint(uint64(st.MinDF))
	e.float(st.LexiconHit)
	tok := st.Tokenizer
	e.bool(tok.KeepHashtags)
	e.bool(tok.KeepMentions)
	e.bool(tok.RemoveStopwords)
	e.uint(uint64(tok.MinTokenLen))
	e.bool(tok.Stem)
}

// online writes the solver state. The user history goes out as one
// record per user — id, row count, rows — in the state's order, which
// ExportState makes ascending by id.
func (e *encoder) online(o *core.OnlineState) {
	if o == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.byte(rngSplitMix64)
	e.uint(o.RandDraws)
	e.dense(o.LastHp)
	e.dense(o.LastHu)
	e.uint(uint64(len(o.SfHist)))
	for _, s := range o.SfHist {
		e.int(int64(s.Time))
		e.dense(s.Sf)
		e.bools(s.Seen)
	}
	users := 0
	for i, h := range o.UserHist {
		if i == 0 || h.User != o.UserHist[i-1].User {
			users++
		}
	}
	e.uint(uint64(users))
	for hist := o.UserHist; len(hist) > 0; {
		n := 1
		for n < len(hist) && hist[n].User == hist[0].User {
			n++
		}
		e.int(int64(hist[0].User))
		e.uint(uint64(n))
		for _, h := range hist[:n] {
			e.int(int64(h.Time))
			e.floats(h.Row)
		}
		hist = hist[n:]
	}
}

func (e *encoder) factors(f *core.Factors) {
	e.dense(f.Sp)
	e.dense(f.Su)
	e.dense(f.Sf)
	e.dense(f.Hp)
	e.dense(f.Hu)
}

// ——— decoder ———

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("length past end of data")
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean")
		return false
	}
}

func (d *decoder) uint() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) int() int64 { return int64(d.uint()) }

func (d *decoder) float() float64 { return math.Float64frombits(d.uint()) }

// count reads a length prefix and sanity-checks it against the bytes that
// remain, given a minimum encoded size per element. The comparison is by
// division, so a hostile count near 2^64 cannot overflow the check and
// reach a huge allocation.
func (d *decoder) count(minElemSize uint64) uint64 {
	n := d.uint()
	if d.err == nil && minElemSize > 0 && n > uint64(len(d.buf))/minElemSize {
		d.fail("element count past end of data")
		return 0
	}
	return n
}

func (d *decoder) string() string { return string(d.bytes(d.uint())) }

func (d *decoder) stringSlice() []string {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.float()
	}
	return out
}

func (d *decoder) intSlice() []int {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.int())
	}
	return out
}

func (d *decoder) bools() []bool {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}

// stringIntMap decodes a map section; like the slice decoders it returns
// nil for an empty collection (encoders do not distinguish nil from
// empty, so decoders canonicalize to nil).
func (d *decoder) stringIntMap() map[string]int {
	n := d.count(16)
	if n == 0 {
		return nil
	}
	out := make(map[string]int, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.string()
		v := int(d.int())
		out[k] = v
	}
	return out
}

func (d *decoder) dense() *mat.Dense {
	if !d.bool() || d.err != nil {
		return nil
	}
	rows, cols := d.uint(), d.uint()
	if d.err != nil {
		return nil
	}
	// Overflow-safe bound: each element takes 8 bytes, so both dimensions
	// and their product must fit in the remaining payload.
	remaining := uint64(len(d.buf)) / 8
	if cols > remaining || rows > maxPayload || (cols != 0 && rows > remaining/cols) {
		d.fail("matrix larger than remaining data")
		return nil
	}
	out := mat.NewDense(int(rows), int(cols))
	data := out.Data()
	for i := range data {
		data[i] = d.float()
	}
	if d.err != nil {
		return nil
	}
	return out
}

func (d *decoder) config(c *core.OnlineConfig, st *engine.State) {
	c.K = int(d.uint())
	c.Alpha = d.float()
	c.Beta = d.float()
	c.MaxIter = int(d.uint())
	c.Tol = d.float()
	c.Seed = d.int()
	c.LexiconInit = d.bool()
	c.SparsityLambda = d.float()
	c.DiversityLambda = d.float()
	c.GuidedLambda = d.float()
	c.GuidedTweetLabels = d.intSlice()
	c.GuidedUserLabels = d.intSlice()
	c.Gamma = d.float()
	c.Tau = d.float()
	c.Window = int(d.uint())
	st.Weighting = text.Weighting(d.uint())
	st.MinDF = int(d.uint())
	st.LexiconHit = d.float()
	st.Tokenizer.KeepHashtags = d.bool()
	st.Tokenizer.KeepMentions = d.bool()
	st.Tokenizer.RemoveStopwords = d.bool()
	st.Tokenizer.MinTokenLen = int(d.uint())
	st.Tokenizer.Stem = d.bool()
}

func (d *decoder) users() []tgraph.User {
	n := d.count(16)
	if n == 0 {
		return nil
	}
	out := make([]tgraph.User, n)
	for i := range out {
		out[i].Name = d.string()
		out[i].Label = int(d.int())
	}
	return out
}

func (d *decoder) online() *core.OnlineState {
	if !d.bool() || d.err != nil {
		return nil
	}
	// An unknown generator id is a version problem, not corruption: the
	// snapshot is intact, this build just cannot replay its stream.
	// ErrVersion keeps it on the same recoverable-skew paths as an
	// unknown format version (quarantine at daemon startup, the
	// unsupported_snapshot_version error code over HTTP).
	if algo := d.byte(); d.err == nil && algo != rngSplitMix64 {
		d.err = fmt.Errorf("%w: snapshot records random generator %d, this build replays generator %d",
			ErrVersion, algo, rngSplitMix64)
		return nil
	}
	o := &core.OnlineState{RandDraws: d.uint()}
	o.LastHp = d.dense()
	o.LastHu = d.dense()
	n := d.count(1)
	if n > 0 {
		o.SfHist = make([]core.SfSnapshotState, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		s := core.SfSnapshotState{Time: int(d.int())}
		s.Sf = d.dense()
		s.Seen = d.bools()
		o.SfHist = append(o.SfHist, s)
	}
	m := d.count(16)
	if m > 0 {
		o.UserHist = make([]core.UserSnapshotState, 0, m)
	}
	for i := uint64(0); i < m && d.err == nil; i++ {
		g := int(d.int())
		if i > 0 && g <= o.UserHist[len(o.UserHist)-1].User {
			d.fail("user history ids not strictly ascending")
			return nil
		}
		cnt := d.count(16)
		if cnt == 0 && d.err == nil {
			d.fail("user history record without rows")
			return nil
		}
		for j := uint64(0); j < cnt && d.err == nil; j++ {
			o.UserHist = append(o.UserHist, core.UserSnapshotState{User: g, Time: int(d.int()), Row: d.floats()})
		}
	}
	return o
}

func (d *decoder) factors() *core.Factors {
	f := &core.Factors{}
	f.Sp = d.dense()
	f.Su = d.dense()
	f.Sf = d.dense()
	f.Hp = d.dense()
	f.Hu = d.dense()
	return f
}
