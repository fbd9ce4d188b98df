package journal

import (
	"context"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

func TestWithTrace(t *testing.T) {
	bg := context.Background()
	if id := TraceID(bg); id != 0 {
		t.Fatalf("background context carries trace %d, want 0", id)
	}

	root := WithTrace(bg)
	id := TraceID(root)
	if id == 0 {
		t.Fatal("fresh root minted trace ID 0")
	}

	// A step handed a traced context joins the caller's chain.
	child := WithTrace(root)
	if child != root {
		t.Error("WithTrace on a traced context should return it unchanged")
	}
	type key struct{}
	if got := TraceID(WithTrace(context.WithValue(root, key{}, "x"))); got != id {
		t.Errorf("derived child trace = %d, want inherited %d", got, id)
	}

	// Every root is its own chain.
	seen := map[uint64]bool{id: true}
	for i := 0; i < 100; i++ {
		next := TraceID(WithTrace(bg))
		if next == 0 || seen[next] {
			t.Fatalf("root %d minted trace %d (zero or repeated)", i, next)
		}
		seen[next] = true
	}
}

// TestTraceIDsDifferAcrossProcesses runs its own test binary twice and
// compares the first trace ID each child mints: a restarted process
// must not reuse IDs that a durable incident store may already hold.
func TestTraceIDsDifferAcrossProcesses(t *testing.T) {
	const childEnv = "IOTSEC_JOURNAL_TRACE_CHILD"
	if os.Getenv(childEnv) == "1" {
		os.Stdout.WriteString("first-trace=" + strconv.FormatUint(TraceID(WithTrace(context.Background())), 10) + "\n")
		return
	}
	var ids [2]uint64
	for i := range ids {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTraceIDsDifferAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		_, rest, ok := strings.Cut(string(out), "first-trace=")
		if !ok {
			t.Fatalf("child %d printed no trace ID:\n%s", i, out)
		}
		line, _, _ := strings.Cut(rest, "\n")
		if ids[i], err = strconv.ParseUint(line, 10, 64); err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		if ids[i] == 0 {
			t.Fatalf("child %d minted trace ID 0", i)
		}
	}
	if ids[0] == ids[1] {
		t.Fatalf("two processes minted the same first trace ID %d", ids[0])
	}
}
