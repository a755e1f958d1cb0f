package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRun drives run() in-process and compares its stdout byte for
// byte against a checked-in capture. The goldens were recorded before
// the latency-backend refactor (DESIGN.md §15), so these tests pin the
// analytic extraction to the pre-refactor output: any float reorder in
// the fluid model, the scheduler, or the renderers shows up as a diff.
func goldenRun(t *testing.T, args []string, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) exit %d, want 0\nstderr: %s", args, code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("run(%v) output diverged from testdata/%s:\ngot:\n%s\nwant:\n%s",
			args, golden, out.String(), want)
	}
}

func TestGoldenDefault(t *testing.T) {
	goldenRun(t, nil, "default.golden")
}

func TestGoldenPressure(t *testing.T) {
	goldenRun(t, []string{"-pressure", "-dataset", "azure-code", "-rate", "4", "-n", "60", "-seed", "11"},
		"pressure.golden")
}

func TestGoldenQoS(t *testing.T) {
	goldenRun(t, []string{"-qos", "-dataset", "azure-code", "-rate", "10", "-n", "120", "-seed", "11", "-workers", "1"},
		"qos.golden")
}

func TestGoldenChaos(t *testing.T) {
	goldenRun(t, []string{"-chaos", "-dataset", "azure-code", "-rate", "10", "-n", "120", "-seed", "7", "-workers", "1"},
		"chaos.golden")
}

func TestGoldenClusterSweep(t *testing.T) {
	goldenRun(t, []string{"-cluster-sweep", "-workers", "1", "-dataset", "azure-code", "-rate", "8", "-n", "80", "-seed", "7"},
		"cluster.golden")
}

// TestGoldenQuickstart pins the README's quickstart example — the first
// output any user sees — byte for byte.
func TestGoldenQuickstart(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "quickstart.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./examples/quickstart")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./examples/quickstart: %v\n%s", err, out)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("quickstart output diverged from testdata/quickstart.golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestBackendSampledReplay: two same-flag runs on the sampled backend
// must render byte-identical output (the draw stream is a pure function
// of -backend-seed), and must not silently fall back to the analytic
// numbers.
func TestBackendSampledReplay(t *testing.T) {
	args := []string{"-backend", "sampled", "-dataset", "azure-code", "-rate", "4", "-n", "40"}
	var a, b, errb bytes.Buffer
	if code := run(args, &a, &errb); code != 0 {
		t.Fatalf("run 1 exit %d\nstderr: %s", code, errb.String())
	}
	if code := run(args, &b, &errb); code != 0 {
		t.Fatalf("run 2 exit %d\nstderr: %s", code, errb.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("sampled backend replay diverged:\nrun1:\n%s\nrun2:\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "bullet+sampled") {
		t.Errorf("sampled run did not report the sampled system name:\n%s", a.String())
	}
}

func TestBackendFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-backend", "bogus"}, &out, &errb); code != 1 {
		t.Fatalf("bogus backend exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown backend") {
		t.Errorf("stderr = %q, want unknown-backend error", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-backend", "sampled", "-system", "vllm-1024"}, &out, &errb); code != 1 {
		t.Fatalf("baseline+backend exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "requires a Bullet variant") {
		t.Errorf("stderr = %q, want Bullet-variant error", errb.String())
	}
}

// TestTraceFlagsOnePath: -trace is an alias of -trace-out, so the same
// run flags must write byte-identical, valid Chrome JSON through either
// flag, and name the written file on stdout. A path in a missing
// directory is an error, not a silent success.
func TestTraceFlagsOnePath(t *testing.T) {
	dir := t.TempDir()
	write := func(flag, name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errb bytes.Buffer
		if code := run([]string{"-system", "bullet", "-n", "20", flag, path}, &out, &errb); code != 0 {
			t.Fatalf("%s exit %d, want 0\nstderr: %s", flag, code, errb.String())
		}
		if !strings.Contains(out.String(), "wrote "+path) {
			t.Errorf("%s stdout does not name %s:\n%s", flag, path, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("%s wrote invalid JSON (%d bytes)", flag, len(data))
		}
		return data
	}
	a := write("-trace-out", "a.json")
	b := write("-trace", "b.json")
	if !bytes.Equal(a, b) {
		t.Errorf("-trace-out and -trace traces differ (%d vs %d bytes)", len(a), len(b))
	}

	var out, errb bytes.Buffer
	missing := filepath.Join(dir, "no-such-dir", "c.json")
	if code := run([]string{"-system", "bullet", "-n", "20", "-trace-out", missing}, &out, &errb); code != 1 {
		t.Fatalf("missing-directory trace exit %d, want 1", code)
	}
	if !strings.HasPrefix(errb.String(), "bulletsim: ") {
		t.Errorf("stderr = %q, want a bulletsim: error", errb.String())
	}
}
