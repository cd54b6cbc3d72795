package backend

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"unsafe"
)

// Worker is one resident process of a worker artifact: a program
// emitted with a gogen.StateSpec, whose arrays and scalars live in a
// mapping this process shares with it. A run is a command byte on the
// worker's stdin, the kernel, and a reply frame of that run's output on
// its stdout (the protocol is gogen.StateSpec's); there is no process
// start and no state marshaling per run. The caller seeds State before
// a run and reads results out of it after.
//
// A Worker serves one goroutine at a time. Close stops it; a Worker
// that becomes unreachable unclosed is stopped by a finalizer, and a
// worker whose host process dies sees end of input and exits.
type Worker struct {
	// The finalizer is on the outer value: the goroutine waiting for the
	// process holds only the inner one, so it cannot keep a forgotten
	// Worker reachable.
	*worker
}

type worker struct {
	bin   string
	mem   []byte    // the shared mapping; nil when it is empty
	state []float64 // mem as float64s
	cmd   *exec.Cmd
	stdin *os.File // the worker's commands
	reply *os.File // the worker's reply frames

	stderr  bytes.Buffer  // the worker's stderr; read only once done is closed
	done    chan struct{} // closed once the process has been reaped
	waitErr error         // the process's exit, written before done closes

	frame [4]byte
	out   []byte // the last reply's output

	once     sync.Once
	closeErr error
}

// runCommand is the byte that asks a worker for one run.
var runCommand = []byte{'r'}

// Start runs the artifact as a resident worker over a fresh, zeroed
// mapping of words float64s, and returns once the worker has mapped it
// and is ready to serve. A worker that refuses its mapping (one of
// another size than its StateSpec lays out: a "za state error") or
// exits before it is ready is a *RunError carrying its stderr. ctx
// bounds the start only; its deadline or cancellation kills the worker.
func (a *Artifact) Start(ctx context.Context, words int) (*Worker, error) {
	f, err := newMapping(8 * words)
	if err != nil {
		return nil, fmt.Errorf("backend: state mapping: %w", err)
	}
	defer f.Close() // the mapping outlives its descriptor; the worker gets a copy
	w := &worker{bin: a.Bin, done: make(chan struct{})}
	W := &Worker{w}
	if w.mem, err = mapShared(f, 8*words); err != nil {
		return nil, fmt.Errorf("backend: state mapping: %w", err)
	}
	if len(w.mem) > 0 {
		w.state = unsafe.Slice((*float64)(unsafe.Pointer(&w.mem[0])), words)
	}
	if err := w.start(f); err != nil {
		w.close()
		return nil, err
	}
	runtime.SetFinalizer(W, func(W *Worker) { W.worker.close() })
	if err := w.await(ctx, nil); err != nil {
		W.Close()
		return nil, err
	}
	return W, nil
}

// start launches the process with the mapping f at gogen.StateFD and a
// pipe on each of stdin and stdout, and a goroutine that reaps it.
func (w *worker) start(f *os.File) error {
	cmdR, cmdW, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("backend: worker pipe: %w", err)
	}
	replyR, replyW, err := os.Pipe()
	if err != nil {
		cmdR.Close()
		cmdW.Close()
		return fmt.Errorf("backend: worker pipe: %w", err)
	}
	w.stdin, w.reply = cmdW, replyR
	cmd := exec.Command(w.bin)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = cmdR, replyW, &w.stderr
	cmd.ExtraFiles = []*os.File{f} // the child's descriptor 3, gogen.StateFD
	err = cmd.Start()
	// The child holds its own copies; the worker's end of input and of
	// output must be its alone, or neither side would see the other go.
	cmdR.Close()
	replyW.Close()
	if err != nil {
		return fmt.Errorf("backend: start worker %s: %w", w.bin, err)
	}
	w.cmd = cmd
	go func() {
		w.waitErr = cmd.Wait()
		close(w.done)
	}()
	return nil
}

// State is the worker's arrays and scalars, laid out as its StateSpec
// says: seed it before Run and read results from it after. The slice
// views the mapping and is valid until Close.
func (w *Worker) State() []float64 { return w.state }

// Run runs the program once over the state in the mapping and writes
// that run's writeln output to out (nil discards it) before it returns.
// A trap is a *RunError with Trap set, and ends the worker; so does a
// deadline or cancellation of ctx, which returns ctx's error. After any
// error the worker is gone or unusable: Close it.
func (w *Worker) Run(ctx context.Context, out io.Writer) error {
	defer runtime.KeepAlive(w)
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := w.stdin.Write(runCommand); err != nil {
		<-w.done // it closed its input: it has exited or is exiting
		return w.exitErr()
	}
	return w.await(ctx, out)
}

// Alive reports whether the worker's process has not been seen to end.
// A worker killed from outside between runs is not alive once it has
// been reaped.
func (w *Worker) Alive() bool {
	select {
	case <-w.done:
		return false
	default:
		return true
	}
}

// Close stops the worker and releases its mapping. It is idempotent.
func (w *Worker) Close() error {
	runtime.SetFinalizer(w, nil)
	return w.worker.close()
}

// await reads the worker's next reply frame and writes its output to
// out. While it waits, ctx's end kills the worker.
func (w *worker) await(ctx context.Context, out io.Writer) error {
	stop := context.AfterFunc(ctx, w.kill)
	_, err := io.ReadFull(w.reply, w.frame[:])
	if err == nil {
		n := int(binary.LittleEndian.Uint32(w.frame[:]))
		if cap(w.out) < n {
			w.out = make([]byte, n)
		}
		w.out = w.out[:n]
		_, err = io.ReadFull(w.reply, w.out)
	}
	if !stop() {
		return ctx.Err() // the kill ran: whatever was read, the run was cancelled
	}
	if err != nil {
		<-w.done // the reply ended early: the worker did
		return w.exitErr()
	}
	if out != nil && len(w.out) > 0 {
		if _, err := out.Write(w.out); err != nil {
			return fmt.Errorf("backend: worker output: %w", err)
		}
	}
	return nil
}

// exitErr classifies the exit of a reaped worker. One that exits 0
// ended without being asked to, which is abnormal too.
func (w *worker) exitErr() error {
	stderr := strings.TrimSpace(w.stderr.String())
	if w.waitErr == nil {
		return &RunError{Stderr: stderr}
	}
	return exitError(w.bin, w.waitErr, stderr)
}

func (w *worker) kill() { w.cmd.Process.Kill() }

func (w *worker) close() error {
	w.once.Do(func() {
		if w.cmd != nil {
			w.kill()
			<-w.done
		}
		if w.stdin != nil {
			w.stdin.Close()
			w.reply.Close()
		}
		w.closeErr = unmap(w.mem)
		w.mem, w.state = nil, nil
	})
	return w.closeErr
}
