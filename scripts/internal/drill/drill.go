// Package drill is the daemon harness the dbpserved drill scripts share:
// it boots the real binary on a loopback address, waits for it to report
// the address it bound (-addr-file), talks HTTP to it, scrapes /metrics,
// and stops it — SIGKILL for crash drills, SIGTERM for drain checks.
//
// With DRILL_ARTIFACTS=<dir> set, every scratch directory — journals,
// checkpoint blobs, and each daemon's daemon.log — is created under <dir>
// and left in place instead of being cleaned up, so a failing drill can be
// uploaded for post-mortem.
package drill

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bindTimeout bounds how long a booting daemon may take to write its
// -addr-file.
const bindTimeout = 15 * time.Second

func artifactsDir() string { return os.Getenv("DRILL_ARTIFACTS") }

// ScratchDir creates a scratch directory, under $DRILL_ARTIFACTS when set.
func ScratchDir(pattern string) (string, error) {
	root := artifactsDir()
	if root == "" {
		return os.MkdirTemp("", pattern)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

// Scrub removes a scratch directory, unless artifacts are being kept.
func Scrub(path string) {
	if artifactsDir() == "" {
		os.RemoveAll(path)
	}
}

// Daemon is one running dbpserved process.
type Daemon struct {
	// Base is the daemon's URL root, e.g. http://127.0.0.1:41234.
	Base string

	cmd  *exec.Cmd
	dir  string
	done chan struct{}
	err  error // exit status; valid once done is closed
}

// Start boots bin on a free loopback port with the given extra flags. name
// labels the daemon's scratch directory.
func Start(bin, name string, flags ...string) (*Daemon, error) {
	return StartAt(bin, name, "127.0.0.1:0", flags...)
}

// StartAt is Start on a given listen address — how a drill restarts a
// killed daemon where its peers still expect it.
func StartAt(bin, name, addr string, flags ...string) (*Daemon, error) {
	dir, err := ScratchDir("dbpserved-" + name)
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{"-addr", addr, "-addr-file", addrFile, "-log-json"}, flags...)
	cmd := exec.Command(bin, args...)
	var sink io.Writer = os.Stderr
	var logFile *os.File
	hint := ""
	if artifactsDir() != "" {
		logFile, err = os.Create(filepath.Join(dir, "daemon.log"))
		if err != nil {
			Scrub(dir)
			return nil, err
		}
		sink = io.MultiWriter(os.Stderr, logFile)
		hint = fmt.Sprintf(" (daemon.log kept under %s)", dir)
	}
	cmd.Stdout, cmd.Stderr = sink, sink
	if err := cmd.Start(); err != nil {
		if logFile != nil {
			logFile.Close()
		}
		Scrub(dir)
		return nil, err
	}
	d := &Daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		if logFile != nil {
			logFile.Close()
		}
		close(d.done)
	}()

	err = Await(bindTimeout, func() (bool, error) {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			d.Base = "http://" + string(data)
			return true, nil
		}
		select {
		case <-d.done:
			return false, fmt.Errorf("exited before binding: %v — likely a bad flag or an occupied port; its log is above", d.err)
		default:
			return false, nil
		}
	})
	if err != nil {
		d.Kill()
		return nil, fmt.Errorf("daemon %s never wrote its bound address to %s (flags: %s): %w%s",
			name, addrFile, strings.Join(args, " "), err, hint)
	}
	return d, nil
}

// Await calls check every 25 ms until it reports done or returns an error,
// and fails once timeout has passed without either.
func Await(timeout time.Duration, check func() (done bool, err error)) error {
	deadline := time.Now().Add(timeout)
	for {
		if done, err := check(); done || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Exited is closed once the daemon process has exited.
func (d *Daemon) Exited() <-chan struct{} { return d.done }

// Kill SIGKILLs the daemon, waits for it to exit, and scrubs its scratch
// directory. It is the unconditional cleanup: safe after Drain or a
// previous Kill.
func (d *Daemon) Kill() {
	d.cmd.Process.Kill()
	<-d.done
	Scrub(d.dir)
}

// Drain SIGTERMs the daemon and requires it to exit 0 within the given
// time.
func (d *Daemon) Drain(within time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", d.err)
		}
		return nil
	case <-time.After(within):
		return fmt.Errorf("daemon did not exit within %v of SIGTERM", within)
	}
}

// Post POSTs a JSON body to path. header holds extra name, value pairs.
func (d *Daemon) Post(path, body string, header ...string) (status int, data []byte, hdr http.Header, err error) {
	req, err := http.NewRequest(http.MethodPost, d.Base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// Get GETs path.
func (d *Daemon) Get(path string) (status int, data []byte, err error) {
	resp, err := http.Get(d.Base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// Metrics scrapes /metrics into series → value, where a series is the
// metric name with its label set verbatim, e.g.
// dbpserved_tenant_slowdown{tenant="vip"}.
func (d *Daemon) Metrics() (map[string]float64, error) {
	status, data, err := d.Get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}
