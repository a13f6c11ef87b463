package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distcoll/internal/trace"
)

// TestRunVerifyChromeRoundTrip drives the full CLI pipeline: a traced run
// writes a JSONL trace and a Chrome export, the verify subcommand re-checks
// the file, and the chrome subcommand converts it again.
func TestRunVerifyChromeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trace.jsonl")
	chrome1 := filepath.Join(dir, "run.chrome.json")
	if err := cmdRun([]string{
		"-machine", "ig", "-bind", "crosssocket", "-np", "16",
		"-size", "65536", "-block", "2048",
		"-o", jsonl, "-chrome", chrome1,
	}); err != nil {
		t.Fatalf("run: %v", err)
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Filter(events, trace.KindCopy)) == 0 {
		t.Fatal("run wrote a trace with no copy events")
	}

	if err := cmdVerify([]string{jsonl}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	chrome2 := filepath.Join(dir, "conv.chrome.json")
	if err := cmdChrome([]string{jsonl, chrome2}); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	for _, path := range []string{chrome1, chrome2} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc []map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s is not a Chrome trace document: %v", path, err)
		}
		if len(doc) == 0 {
			t.Fatalf("%s has no trace events", path)
		}
	}
}

// TestRunSingleOp: a bcast-only run on the default machine verifies clean.
func TestRunSingleOp(t *testing.T) {
	if err := cmdRun([]string{"-np", "8", "-size", "4096", "-root", "3", "-ops", "bcast"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRejectsUnknownInputs: bad machine, binding, and op names fail.
func TestRunRejectsUnknownInputs(t *testing.T) {
	for name, args := range map[string][]string{
		"machine": {"-machine", "nonesuch"},
		"binding": {"-bind", "nonesuch"},
		"op":      {"-ops", "nonesuch"},
	} {
		if err := cmdRun(args); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
}

// TestVerifyRejectsTamperedTrace: corrupting one copy's distance tag in a
// captured trace must make verification fail.
func TestVerifyRejectsTamperedTrace(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "trace.jsonl")
	if err := cmdRun([]string{"-np", "8", "-size", "8192", "-o", jsonl}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if events[i].Kind == trace.KindCopy && events[i].Dist > 0 {
			events[i].Dist++
			break
		}
	}
	data, err := trace.MarshalJSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{bad}); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("tampered trace verified: %v", err)
	}
}

// TestVerifyRequiresMeta: a trace without its meta record cannot be
// verified (no way to rebuild the distance matrix).
func TestVerifyRequiresMeta(t *testing.T) {
	dir := t.TempDir()
	data, err := trace.MarshalJSONL([]trace.Event{
		{Kind: trace.KindCopy, Op: "bcast", Plan: 1, Rank: 1, Src: 0, Dst: 1, Bytes: 64, Dist: 1, Mode: "knem"},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "nometa.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{path}); err == nil ||
		!strings.Contains(err.Error(), "meta") {
		t.Fatalf("meta-less trace accepted: %v", err)
	}
}

// TestInferBcast covers the root/size recovery and its ambiguity errors.
func TestInferBcast(t *testing.T) {
	pull := func(rank, src int, bytes int64) trace.Event {
		return trace.Event{Kind: trace.KindCopy, Op: "bcast", Rank: rank, Src: src, Dst: rank, Bytes: bytes}
	}
	root, size, err := inferBcast([]trace.Event{pull(1, 0, 128), pull(2, 1, 128)}, 3)
	if err != nil || root != 0 || size != 128 {
		t.Fatalf("inferBcast = (%d, %d, %v), want (0, 128, nil)", root, size, err)
	}
	if _, _, err := inferBcast([]trace.Event{pull(2, 0, 64)}, 4); err == nil {
		t.Fatal("ambiguous root accepted")
	}
	if _, _, err := inferBcast([]trace.Event{pull(0, 1, 64), pull(1, 0, 64)}, 2); err == nil {
		t.Fatal("rootless trace accepted")
	}
	if _, _, err := inferBcast([]trace.Event{pull(9, 0, 64)}, 4); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestHealthReplayFlagsSlowEdge: the health subcommand replays a
// synthetic trace whose relay edge is persistently slow against healthy
// same-class peers and reports the demotion the online scorer would
// have fired.
func TestHealthReplayFlagsSlowEdge(t *testing.T) {
	var events []trace.Event
	copyEv := func(src, dst int, durUs int64) trace.Event {
		return trace.Event{Kind: trace.KindCopy, Op: "bcast", Src: src, Dst: dst,
			Bytes: 1024, Dist: 3, Dur: durUs * 1000, Mode: "knem"}
	}
	for round := 0; round < 16; round++ {
		events = append(events,
			copyEv(0, 4, 500), // the gray-failed relay edge
			copyEv(0, 8, 10),
			copyEv(0, 12, 10),
			trace.Event{Kind: trace.KindPlanReap})
	}
	data, err := trace.MarshalJSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gray.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := cmdHealth([]string{"-window", "8", "-min-samples", "4",
		"-demote-ratio", "3", "-strikes", "2", path})
	w.Close()
	os.Stdout = old
	var out strings.Builder
	if _, err := io.Copy(&out, r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("health: %v", runErr)
	}
	got := out.String()
	t.Log(got)
	if !strings.Contains(got, "demoted=1") {
		t.Errorf("report does not show the demotion:\n%s", got)
	}
	if !strings.Contains(got, "edge 0-4") || !strings.Contains(got, "demoted (") {
		t.Errorf("report does not score edge 0-4 as demoted:\n%s", got)
	}
}
