package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i), Iters: i})
	}
	events, dropped := rec.Snapshot()
	if len(events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(events))
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	for i, e := range events {
		if want := int64(7 + i); e.TNs != want {
			t.Fatalf("event %d has t_ns %d, want %d (oldest-first order)", i, e.TNs, want)
		}
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
}

func TestRecorderPartialRing(t *testing.T) {
	rec := NewRecorder(16)
	rec.Event(&Event{V: SchemaVersion, Kind: KindRunBegin})
	rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: 5})
	events, dropped := rec.Snapshot()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("got %d events, %d dropped; want 2, 0", len(events), dropped)
	}
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	rec := NewRecorder(0)
	if rec.capacity != DefaultRecorderCapacity {
		t.Fatalf("default capacity = %d, want %d", rec.capacity, DefaultRecorderCapacity)
	}
}

// TestRecorderGrowsOnDemand checks that a short run holds memory only for
// the events it recorded — about the 212 events of a 12-point cold job —
// and that the ring never grows past its capacity once it wraps.
func TestRecorderGrowsOnDemand(t *testing.T) {
	rec := NewRecorder(0)
	if cap(rec.buf) != 0 {
		t.Fatalf("fresh recorder preallocates %d events", cap(rec.buf))
	}
	for i := 0; i < 212; i++ {
		rec.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i)})
	}
	if rec.Len() != 212 {
		t.Fatalf("Len = %d, want 212", rec.Len())
	}
	if c := cap(rec.buf); c < 212 || c > 2*212 {
		t.Fatalf("212 events held in a buffer of %d", c)
	}

	small := NewRecorder(100)
	for i := 0; i < 1000; i++ {
		small.Event(&Event{V: SchemaVersion, Kind: KindPoint, TNs: int64(i)})
	}
	if c := cap(small.buf); c != 100 {
		t.Fatalf("capacity-100 ring grew to %d", c)
	}
	events, dropped := small.Snapshot()
	if len(events) != 100 || dropped != 900 || events[0].TNs != 900 || events[99].TNs != 999 {
		t.Fatalf("snapshot: %d events from t=%d, %d dropped", len(events), events[0].TNs, dropped)
	}
}

// TestRecorderDumpValidates drives a real run through a recorder small
// enough to evict the early events — the shape of a killed job — and checks
// the dump round-trips through ReadJSONL and satisfies ValidateDump with the
// correlation ID on every recorded event and the synthesized error ring at
// the tail.
func TestRecorderDumpValidates(t *testing.T) {
	now := time.Unix(0, 0)
	run := New(
		WithClock(func() time.Time { now = now.Add(time.Millisecond); return now }),
		WithCorr("corr-abc123"),
	)
	rec := NewRecorder(8)
	run.AddSink(rec)

	trace := run.StartSpan(SpanTrace)
	for i := 0; i < 12; i++ {
		step := trace.StartSpan(SpanStep)
		step.Point(1e-12*float64(i), 2e-12, i%4+1)
		step.End()
	}
	// The job dies here: trace never ends, run never closes.

	var buf bytes.Buffer
	errEv := &Event{
		Op:  "trace",
		Msg: "corrector diverged at step 12",
		Iterates: []Iterate{
			{TauS: 1.1e-11, TauH: 2.0e-12, H: 1e-12},
			{TauS: 1.2e-11, TauH: 2.1e-12, H: 5e-13},
		},
		StepLens: []float64{1e-12, 5e-13, 2.5e-13},
	}
	if err := rec.WriteDump(&buf, DumpMeta{
		Corr: "corr-abc123", Job: "job-7", Reason: "convergence",
		Err: "corrector diverged at step 12",
	}, errEv); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}

	events, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("dump does not parse as JSONL: %v", err)
	}
	if err := ValidateDump(events); err != nil {
		t.Fatalf("dump fails ValidateDump: %v", err)
	}
	// Strict Validate must reject it (evicted span begins) — that's the
	// reason ValidateDump exists; if this starts passing, the ring was big
	// enough and the test lost its point.
	if err := Validate(events); err == nil {
		t.Fatal("truncated dump unexpectedly passes strict Validate")
	}

	head := events[0]
	if head.Kind != KindDumpMeta || head.Job != "job-7" || head.Reason != "convergence" {
		t.Fatalf("bad dump header: %+v", head)
	}
	if head.Dropped == 0 {
		t.Fatal("header reports no evictions; ring should have wrapped")
	}
	for i, e := range events {
		if e.Corr != "corr-abc123" {
			t.Fatalf("event %d (%s) has corr %q, want corr-abc123", i, e.Kind, e.Corr)
		}
	}
	tail := events[len(events)-1]
	if tail.Kind != KindError || tail.Op != "trace" {
		t.Fatalf("dump tail is %+v, want error event for op trace", tail)
	}
	if len(tail.Iterates) != 2 || len(tail.StepLens) != 3 {
		t.Fatalf("error event lost the iterate ring: %+v", tail)
	}
}

func TestValidateDumpRejects(t *testing.T) {
	meta := Event{V: SchemaVersion, Kind: KindDumpMeta}
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"empty", nil, "empty dump"},
		{"no header", []Event{{V: SchemaVersion, Kind: KindPoint}}, "does not start with"},
		{"bad version", []Event{meta, {V: 99, Kind: KindPoint}}, "schema version"},
		{"unknown kind", []Event{meta, {V: SchemaVersion, Kind: "bogus"}}, "unknown event kind"},
		{"time travel", []Event{meta,
			{V: SchemaVersion, Kind: KindPoint, TNs: 10},
			{V: SchemaVersion, Kind: KindPoint, TNs: 5}}, "precedes"},
		{"dup span begin", []Event{meta,
			{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanStep, Span: 3},
			{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanStep, Span: 3}}, "duplicate span id"},
	}
	for _, tc := range cases {
		err := ValidateDump(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Orphan span_end and open spans are legal in a dump.
	ok := []Event{meta,
		{V: SchemaVersion, Kind: KindSpanEnd, Name: SpanStep, Span: 99, TNs: 1},
		{V: SchemaVersion, Kind: KindSpanBegin, Name: SpanTrace, Span: 100, TNs: 2},
	}
	if err := ValidateDump(ok); err != nil {
		t.Errorf("truncated-but-well-formed dump rejected: %v", err)
	}
}

func TestRuntimeSampleEmission(t *testing.T) {
	run := New(WithCorr("rt-corr"))
	var got []Event
	cancel := run.Subscribe(func(e Event) {
		if e.Kind == KindRuntime {
			got = append(got, e)
		}
	})
	defer cancel()
	st := ReadRuntimeStats()
	if st.Goroutines <= 0 {
		t.Fatalf("ReadRuntimeStats reports %d goroutines", st.Goroutines)
	}
	if st.HeapBytes == 0 {
		t.Fatal("ReadRuntimeStats reports zero heap")
	}
	run.Runtime(st)
	if len(got) != 1 {
		t.Fatalf("saw %d runtime events, want 1", len(got))
	}
	if got[0].Goroutines != st.Goroutines || got[0].HeapBytes != st.HeapBytes {
		t.Fatalf("runtime event %+v does not match sample %+v", got[0], st)
	}
	if got[0].Corr != "rt-corr" {
		t.Fatalf("runtime event corr = %q, want rt-corr", got[0].Corr)
	}
	if n := run.Counter(CtrRuntimeSamples); n != 1 {
		t.Fatalf("runtime_samples counter = %d, want 1", n)
	}
}
