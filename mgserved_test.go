package pbmg

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMGServedLifecycle drives the serving daemon end to end as a real
// process: start on an ephemeral port, solve over HTTP, hot-reload via
// SIGHUP and the reload endpoint, then SIGTERM — which must drain and
// exit 0. This file stays in package pbmg and speaks raw JSON so the test
// exercises the daemon the way an external client would.
func TestMGServedLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mgserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mgserved")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build mgserved: %v\n%s", err, out)
	}

	// A tuned-table directory for -configdir, so SIGHUP has real files to
	// re-read.
	tables := filepath.Join(dir, "tables")
	if err := os.Mkdir(tables, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := tuneFamily(t, FamilyPoisson, 0).Save(filepath.Join(tables, "poisson.json")); err != nil {
		t.Fatal(err)
	}
	if err := tuneFamily(t, FamilyAnisotropic, 0.25).Save(filepath.Join(tables, "aniso.json")); err != nil {
		t.Fatal(err)
	}

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-configdir", tables, "-workers", "1",
		"-quota", "poisson=2", "-drain-timeout", "30s")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The daemon logs its resolved address; everything it prints after
	// that is collected for the final assertions.
	var addr string
	var logTail strings.Builder
	logLines := make(chan struct{})
	scanner := bufio.NewScanner(stderr)
	for scanner.Scan() {
		line := scanner.Text()
		if _, a, ok := strings.Cut(line, "listening on "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		t.Fatal("mgserved never reported its listen address")
	}
	go func() {
		defer close(logLines)
		for scanner.Scan() {
			logTail.WriteString(scanner.Text())
			logTail.WriteString("\n")
		}
	}()
	base := "http://" + addr

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	// One solve over the wire, request built by hand like an external
	// client would.
	p, err := tuneFamily(t, FamilyPoisson, 0).NewFamilyProblem(17, Unbiased, 21)
	if err != nil {
		t.Fatal(err)
	}
	Reference(p)
	body, err := json.Marshal(map[string]any{
		"family": "poisson", "n": 17, "accuracy": 1e3,
		"b": p.B.Data(), "x": p.NewState().Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var solved struct {
		X []float64 `json:"x"`
	}
	err = json.NewDecoder(resp.Body).Decode(&solved)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: HTTP %d, %v", resp.StatusCode, err)
	}
	x := NewGrid(17)
	copy(x.Data(), solved.X)
	if got := p.AccuracyOf(x); got < 1e3 {
		t.Fatalf("served accuracy %.3g, want ≥ 1e3", got)
	}

	// Bad-input routing (moved here from the retired mgserve's CLI cases): a
	// family the catalog does not serve, and a served family at an eps it
	// was not tuned for, are 404s that say what IS served.
	for _, tc := range []struct {
		name    string
		req     map[string]any
		wantErr string
	}{
		{"registry family miss", map[string]any{"family": "varcoef", "n": 17, "accuracy": 1e3, "b": p.B.Data()},
			"does not serve family"},
		{"registry eps mismatch", map[string]any{"family": "aniso", "eps": 0.5, "n": 17, "accuracy": 1e3, "b": p.B.Data()},
			"serves family aniso at eps 0.25"},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(buf.String(), tc.wantErr) {
			t.Fatalf("%s: HTTP %d %s, want 404 mentioning %q", tc.name, resp.StatusCode, buf.String(), tc.wantErr)
		}
	}

	// Hot-reload over HTTP, then via SIGHUP; each must bump the version.
	resp, err = http.Post(base+"/-/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d", resp.StatusCode)
	}
	if err := srv.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, metrics := get("/metrics")
		var m struct {
			Version int64 `json:"version"`
		}
		if err := json.Unmarshal(metrics, &m); err != nil {
			t.Fatal(err)
		}
		if m.Version == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("version = %d after two reloads, want 3", m.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM: graceful drain, clean exit.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the log pipe to EOF before Wait — Wait closes the pipe and
	// would race the scanner out of the final lines.
	<-logLines
	if err := srv.Wait(); err != nil {
		t.Fatalf("mgserved exited uncleanly after SIGTERM: %v\n%s", err, logTail.String())
	}
	if !strings.Contains(logTail.String(), "drained cleanly") {
		t.Fatalf("drain not logged:\n%s", logTail.String())
	}
}
