package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"distcoll/internal/distance"
)

// TestNilTracerIsSafe: every emit method on the nil tracer must be a
// no-op — the runtime threads a possibly-nil *Tracer through every layer.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Metrics() != nil {
		t.Fatal("nil tracer has a metrics registry")
	}
	if tr.Now() != 0 {
		t.Fatal("nil tracer has a clock")
	}
	tr.Meta("m")
	tr.OpBegin("bcast", 1, 0, 10)
	tr.OpEnd("bcast", 1, 0, time.Millisecond, nil)
	tr.OpEnd("bcast", 1, 0, time.Millisecond, errors.New("boom"))
	tr.Copy("bcast", 1, 0, 0, 1, 0, 0, 10, 1, "knem", time.Microsecond)
	tr.PlanBuild("bcast", 1, 5, 3, 100)
	tr.PlanReap(1, 3)
	tr.Declare(0, 42, 100)
	tr.Destroy(0, 42)
	tr.Retry("bcast", 0, 1, errors.New("transient"))
	tr.Failure(3)
	tr.Watchdog(2, "blocked")
}

// TestRingSinkWraps: the ring keeps the newest events and counts drops.
func TestRingSinkWraps(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 7; i++ {
		e := blank(KindCopy)
		e.OpID = i
		r.Emit(e)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.OpID != 3+i {
			t.Fatalf("event %d has opid %d, want %d (oldest-first order)", i, e.OpID, 3+i)
		}
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

// TestMetaRoundTrip: the meta record is written and read in one place, so
// what a world records is what an analyzer rebuilds its topology from; a
// trace without the record, or with a mangled one, is an error (the two
// cases disttrace verify and the autotune replay used to parse by hand).
func TestMetaRoundTrip(t *testing.T) {
	for _, m := range []MetaInfo{{"zoot", "contiguous", 16}, {"igrack", "crosssocket", 96}, {"ig", "rr", 1}} {
		ring := NewRing(4)
		tr := New(ring)
		tr.OpBegin("bcast", 1, 0, 64) // the record need not come first
		tr.Meta(m.String())
		got, err := ParseMeta(ring.Events())
		if err != nil || got != m {
			t.Errorf("ParseMeta(%q) = %+v, %v; want %+v", m, got, err, m)
		}
	}
	if _, err := ParseMeta([]Event{{Kind: KindCopy}}); err == nil || !strings.Contains(err.Error(), "no meta record") {
		t.Errorf("trace without a meta record: %v", err)
	}
	for _, det := range []string{"", "m", "machine=zoot bind=contiguous", "machine=zoot bind=contiguous np=many"} {
		if _, err := ParseMeta([]Event{{Kind: KindMeta, Det: det}}); err == nil || !strings.Contains(err.Error(), "unparseable") {
			t.Errorf("meta record %q: %v", det, err)
		}
	}
}

// TestJSONLRoundTrip: marshaled traces read back field-for-field.
func TestJSONLRoundTrip(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	tr.Meta("machine=zoot bind=contiguous np=2")
	tr.Copy("bcast", 1, 1, 0, 1, 0, 2, 4096, 3, "knem", 5*time.Microsecond)
	tr.OpEnd("bcast", 1, 1, time.Millisecond, errors.New("boom"))
	events := ring.Events()
	data, err := MarshalJSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if events[i] != back[i] {
			t.Fatalf("event %d: %+v != %+v", i, events[i], back[i])
		}
	}
}

// TestJSONLSinkFlush: the buffered writer sink persists every event.
func TestJSONLSinkFlush(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	tr := New(s)
	tr.OpBegin("allgather", 2, 0, 64)
	tr.OpEnd("allgather", 2, 0, time.Microsecond, nil)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Kind != KindOpBegin || back[1].Kind != KindOpEnd {
		t.Fatalf("unexpected events read back: %+v", back)
	}
}

// TestWriteChrome: the exporter produces a valid Chrome trace-event JSON
// document mentioning the traced collective.
func TestWriteChrome(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	tr.OpBegin("bcast", 1, 0, 64)
	tr.Copy("bcast", 1, 1, 0, 1, 0, 0, 64, 1, "knem", time.Microsecond)
	tr.OpEnd("bcast", 1, 0, time.Millisecond, nil)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, ring.Events()); err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc) == 0 {
		t.Fatal("chrome output has no trace events")
	}
	if !strings.Contains(buf.String(), "bcast") {
		t.Fatal("chrome output does not mention the collective")
	}
}

// TestFilterAndCanonical: Canonical keeps only copies, sorts by (plan,
// opid) and zeroes the nondeterministic fields.
func TestFilterAndCanonical(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	tr.Copy("bcast", 2, 1, 0, 1, 1, 0, 10, 1, "knem", time.Microsecond)
	tr.Copy("bcast", 1, 2, 1, 2, 1, 0, 10, 2, "knem", time.Microsecond)
	tr.Copy("bcast", 1, 1, 0, 1, 0, 0, 10, 1, "knem", time.Microsecond)
	tr.OpEnd("bcast", 1, 0, time.Millisecond, nil)
	evs := ring.Events()
	if got := len(Filter(evs, KindCopy)); got != 3 {
		t.Fatalf("Filter(copy) = %d events, want 3", got)
	}
	if got := len(FilterOp(evs, KindCopy, "bcast")); got != 3 {
		t.Fatalf("FilterOp(copy, bcast) = %d events, want 3", got)
	}
	if got := len(FilterOp(evs, KindCopy, "allgather")); got != 0 {
		t.Fatalf("FilterOp(copy, allgather) = %d events, want 0", got)
	}
	canon := Canonical(evs)
	if len(canon) != 3 {
		t.Fatalf("canonical trace has %d events, want 3", len(canon))
	}
	// Plan 1's copies (opid 0 then 1) sort before plan 2's.
	if canon[0].OpID != 0 || canon[1].OpID != 1 || canon[2].OpID != 1 {
		t.Fatalf("canonical order wrong: %+v", canon)
	}
	for i, e := range canon {
		if e.T != 0 || e.Dur != 0 || e.Plan != 0 {
			t.Fatalf("canonical event %d keeps nondeterministic fields: %+v", i, e)
		}
	}
}

// TestMetricsRegistry: counters, per-distance-class counters and
// histograms accumulate and render.
func TestMetricsRegistry(t *testing.T) {
	tr := New()
	tr.Copy("bcast", 1, 1, 0, 1, 0, 0, 100, 2, "knem", time.Microsecond)
	tr.Copy("bcast", 1, 2, 0, 2, 1, 0, 50, 2, "knem", time.Microsecond)
	tr.Copy("bcast", 1, 3, 2, 3, 2, 0, 25, 1, "knem", time.Microsecond)
	tr.Retry("bcast", 1, 1, errors.New("transient"))
	tr.OpEnd("bcast", 1, 1, 2*time.Millisecond, nil)
	tr.OpEnd("bcast", 1, 2, 4*time.Millisecond, nil)
	mx := tr.Metrics()
	if got := mx.DistClass("bytes", 2).Load(); got != 150 {
		t.Fatalf("bytes.dist2 = %d, want 150", got)
	}
	if got := mx.DistClass("copies", 2).Load(); got != 2 {
		t.Fatalf("copies.dist2 = %d, want 2", got)
	}
	if got := mx.DistClass("bytes", 1).Load(); got != 25 {
		t.Fatalf("bytes.dist1 = %d, want 25", got)
	}
	if got := mx.Counter("retries").Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	h := mx.Histogram("latency.bcast")
	count, mean, min, max := h.Summary()
	if count != 2 {
		t.Fatalf("latency count = %d, want 2", count)
	}
	if min <= 0 || max < min || mean < min || mean > max {
		t.Fatalf("latency summary inconsistent: mean=%v min=%v max=%v", mean, min, max)
	}
	counters := mx.Counters()
	if counters["bytes.dist.2"] != 150 {
		t.Fatalf("Counters() snapshot = %v", counters)
	}
	out := mx.String()
	for _, want := range []string{"bytes.dist.2", "retries", "latency.bcast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsRemovePrefix: the tenant-teardown hook drops exactly the
// prefixed counters and histograms; a removed name recreates at zero.
func TestMetricsRemovePrefix(t *testing.T) {
	m := NewMetrics()
	m.Counter("serve.tenant.1.admitted").Add(3)
	m.Counter("serve.tenant.10.admitted").Add(5)
	m.Counter("serve.admitted").Add(7)
	m.Histogram("serve.tenant.1.latency").Observe(1)
	m.RemovePrefix("serve.tenant.1.")
	snap := m.Counters()
	if _, ok := snap["serve.tenant.1.admitted"]; ok {
		t.Fatalf("counter survived RemovePrefix: %v", snap)
	}
	// "serve.tenant.1." must not swallow tenant 10's counters.
	if snap["serve.tenant.10.admitted"] != 5 || snap["serve.admitted"] != 7 {
		t.Fatalf("unrelated counters disturbed: %v", snap)
	}
	if m.Histogram("serve.tenant.1.latency").Count() != 0 {
		t.Fatalf("histogram survived RemovePrefix")
	}
	if m.Counter("serve.tenant.1.admitted").Load() != 0 {
		t.Fatalf("recreated counter kept its old value")
	}
	var nilM *Metrics
	nilM.RemovePrefix("x") // nil registry is a no-op, not a panic
}

// TestTracerConcurrentEmit: many goroutines emitting into one tracer and
// ring must not race (run under -race) and must account every event.
func TestTracerConcurrentEmit(t *testing.T) {
	ring := NewRing(1 << 12)
	tr := New(ring)
	const workers, per = 8, 100
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				tr.Copy("bcast", 1, w, 0, w, i, 0, 8, 1, "knem", 0)
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := len(ring.Events()); got != workers*per {
		t.Fatalf("ring holds %d events, want %d", got, workers*per)
	}
	if got := tr.Metrics().DistClass("copies", 1).Load(); got != workers*per {
		t.Fatalf("copies.dist1 = %d, want %d", got, workers*per)
	}
}

// TestDistClassResolvesWithoutFormatting: DistClass is looked up twice per
// copy event, so after first use it must neither format a name nor
// allocate; the counters it returns are still the registry's own, under the
// unchanged "<base>.dist.<d>" names, and RemovePrefix does not leave it
// holding orphans.
func TestDistClassResolvesWithoutFormatting(t *testing.T) {
	mx := NewMetrics()
	for d := -1; d <= distance.Max+1; d++ {
		mx.DistClass("bytes", d).Add(int64(d + 2))
	}
	for d := 0; d <= distance.Max+1; d++ {
		if got := mx.Counter(fmt.Sprintf("bytes.dist.%d", d)).Load(); got != int64(d+2) {
			t.Errorf("bytes.dist.%d = %d, want %d", d, got, d+2)
		}
	}
	if got := mx.Counter("bytes.dist.unknown").Load(); got != 1 {
		t.Errorf("bytes.dist.unknown = %d, want 1", got)
	}
	if mx.DistClass("bytes", -7) != mx.DistClass("bytes", -1) {
		t.Error("negative classes do not share the unknown counter")
	}
	if got := testing.AllocsPerRun(100, func() {
		mx.DistClass("bytes", 3).Add(1)
		mx.DistClass("bytes", -1).Add(1)
	}); got != 0 {
		t.Errorf("warm DistClass allocates %.0f times per pair of lookups, want 0", got)
	}
	mx.RemovePrefix("bytes.")
	if got := mx.DistClass("bytes", 3).Load(); got != 0 {
		t.Errorf("bytes.dist.3 = %d after RemovePrefix, want a fresh counter", got)
	}
	if mx.DistClass("bytes", 3) != mx.Counter("bytes.dist.3") {
		t.Error("DistClass and Counter disagree on bytes.dist.3 after RemovePrefix")
	}
}

// TestOpLatencyResolvesWithoutFormatting: every op_end event looks up its
// collective's latency histogram, so after first use that must neither
// format "latency.<op>" nor allocate; the histogram is still the registry's
// own entry under that name, and RemovePrefix does not leave the lookup
// holding an orphan.
func TestOpLatencyResolvesWithoutFormatting(t *testing.T) {
	tr := New()
	mx := tr.Metrics()
	tr.OpEnd("bcast", 1, 0, time.Millisecond, nil)
	if mx.opLatency("bcast") != mx.Histogram("latency.bcast") {
		t.Fatal("opLatency and Histogram disagree on latency.bcast")
	}
	if got := mx.Histogram("latency.bcast").Count(); got != 1 {
		t.Errorf("latency.bcast holds %d samples after one op_end, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		mx.opLatency("bcast").Observe(1e-3)
		mx.opLatency("allgather.repair").Observe(1e-3)
	}); got != 0 {
		t.Errorf("warm opLatency allocates %.0f times per pair of lookups, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		tr.OpEnd("bcast", 1, 0, time.Millisecond, nil)
	}); got != 0 {
		t.Errorf("a sinkless op_end allocates %.0f times, want 0", got)
	}
	mx.RemovePrefix("latency.")
	if got := mx.opLatency("bcast").Count(); got != 0 {
		t.Errorf("latency.bcast holds %d samples after RemovePrefix, want a fresh histogram", got)
	}
	if mx.opLatency("bcast") != mx.Histogram("latency.bcast") {
		t.Error("opLatency and Histogram disagree on latency.bcast after RemovePrefix")
	}
}
