// Package scenario assembles complete experiment runs: it boots a WinMini
// kernel, installs a sample Spec's programs and seed files, wires scripted
// endpoints and device events, and runs it with a chosen set of analysis
// plugins (the FAROS engine, the Cuckoo baseline, the malfind snapshot
// scan) — live, or as the paper's record-then-replay workflow where a
// recording is reused.
package scenario

import (
	"context"
	"errors"
	"fmt"
	"time"

	"faros/internal/baseline/cuckoo"
	"faros/internal/baseline/malfind"
	"faros/internal/core"
	"faros/internal/faults"
	"faros/internal/guest"
	"faros/internal/osi"
	"faros/internal/provgraph"
	"faros/internal/record"
	"faros/internal/samples"
)

// DefaultMaxInstr bounds runs whose spec does not set a budget.
const DefaultMaxInstr uint64 = 5_000_000

// DeadlineError reports a run cancelled by its context deadline before the
// guest reached shutdown or its instruction budget. It carries how far the
// guest got so partial progress is observable.
type DeadlineError struct {
	Scenario     string
	Instructions uint64
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("scenario %s: deadline exceeded after %d instructions", e.Scenario, e.Instructions)
}

// Is makes errors.Is(err, context.DeadlineExceeded) hold for wrapped
// deadline errors.
func (e *DeadlineError) Is(target error) bool { return target == context.DeadlineExceeded }

// CancelError reports a run stopped by explicit context cancellation.
type CancelError struct {
	Scenario     string
	Instructions uint64
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("scenario %s: cancelled after %d instructions", e.Scenario, e.Instructions)
}

// Is makes errors.Is(err, context.Canceled) hold for wrapped cancellations.
func (e *CancelError) Is(target error) bool { return target == context.Canceled }

// Plugins selects the analysis attached to a run.
type Plugins struct {
	// Faros, when non-nil, attaches the DIFT engine with this config.
	Faros *core.Config
	// Cuckoo attaches the event-based sandbox baseline.
	Cuckoo bool
	// Malfind runs the end-of-run snapshot scan.
	Malfind bool
	// OSI attaches the introspection tracker.
	OSI bool
	// Extra hooks run against the kernel before the run starts; external
	// plugins attach here. A panic from an Extra-registered hook (at attach
	// time or mid-run) is recovered into Result.Err with a partial report.
	Extra []func(*guest.Kernel)
}

// Result is everything observable from one run.
type Result struct {
	Name         string
	Summary      guest.RunSummary
	Console      []string
	MessageBoxes []string
	WallTime     time.Duration

	Faros   *core.FAROS
	Cuckoo  *cuckoo.Report
	Malfind *malfind.Report
	OSI     *osi.Tracker

	// Kernel is the finished guest, kept for post-run inspection (shadow
	// queries, VAD walks, filesystem state). The Result owns the kernel's
	// guest memory until Release hands it to the process-wide pools; after
	// that Kernel and Faros are nil, and reports built from them earlier
	// (findings, provenance graphs, baseline reports) stay valid.
	Kernel *guest.Kernel

	// Faults counts the faults injected during the run (zero without a
	// fault plan).
	Faults faults.Stats

	// Err is set when the run degraded instead of completing cleanly: a
	// recovered plugin panic, or a replay divergence. The rest of the
	// Result is the partial report gathered up to that point.
	Err error
}

// Release hands the run's guest memory back to the process-wide pools, so
// the next run reuses it instead of allocating afresh: the kernel's
// physical frames and predecoded block pages, and the FAROS store's shadow
// pages. It then nils Kernel and Faros, so a read after release panics
// instead of seeing another run's recycled bytes. Call it once every read
// of the guest state is done; the summary fields, Cuckoo, Malfind and OSI
// stay usable.
func (r *Result) Release() {
	if r.Kernel != nil {
		r.Kernel.M.Release()
		r.Kernel = nil
	}
	if r.Faros != nil {
		r.Faros.T.Release()
		r.Faros = nil
	}
}

// Flagged reports whether FAROS flagged the run (false when FAROS was not
// attached).
func (r *Result) Flagged() bool { return r.Faros != nil && r.Faros.Flagged() }

// Findings returns the run's structured findings (nil when FAROS was not
// attached). Each finding carries its provenance graph, built at flag time.
func (r *Result) Findings() []core.Finding {
	if r.Faros == nil {
		return nil
	}
	return r.Faros.Findings()
}

// ProvGraph returns the run's merged provenance graph: the union of every
// finding's graph in canonical form. It is never nil — a clean run (or one
// without FAROS) yields the canonical empty graph.
func (r *Result) ProvGraph() *provgraph.Graph {
	if r.Faros == nil {
		return provgraph.Merge()
	}
	return r.Faros.ProvGraph()
}

// mode selects live versus replay setup.
type mode struct {
	replayLog *record.Log
	recorder  *record.Recorder
}

// setup boots and populates a kernel for the spec.
func setup(spec samples.Spec, m mode) (*guest.Kernel, error) {
	k, err := guest.NewKernel()
	if err != nil {
		return nil, err
	}
	for name, data := range samples.SeedFiles() {
		k.FS.Install(name, data)
	}
	for _, p := range spec.Programs {
		k.FS.Install(p.Path, p.Bytes)
	}
	if m.replayLog != nil {
		// Replay: the log carries every nondeterministic input; endpoints
		// and scripted events must not fire again.
		k.EnableReplay(m.replayLog)
	} else {
		for _, ep := range spec.Endpoints {
			k.Net.AddEndpoint(ep.Addr, ep.Endpoint)
		}
		for _, ev := range spec.Events {
			k.ScheduleEvent(ev)
		}
		if m.recorder != nil {
			k.SetRecorder(m.recorder)
		}
	}
	return k, nil
}

// attach installs the selected plugins, returning a completion function
// that collects their outputs.
func attach(k *guest.Kernel, plugins Plugins) (pre *Result, finish func(*Result)) {
	res := &Result{}
	var farosEng *core.FAROS
	var sandbox *cuckoo.Sandbox
	if plugins.Faros != nil {
		farosEng = core.Attach(k, *plugins.Faros)
	}
	if plugins.Cuckoo {
		sandbox = cuckoo.Attach(k)
	}
	if plugins.OSI {
		res.OSI = osi.Attach(k)
	}
	return res, func(r *Result) {
		r.Faros = farosEng
		r.OSI = res.OSI
		if sandbox != nil {
			r.Cuckoo = sandbox.Analyze()
		}
		if plugins.Malfind {
			r.Malfind = malfind.Scan(k)
		}
	}
}

// run spawns the autostart programs and executes to completion. A panic
// from plugin or hook code is recovered into Result.Err: the run degrades
// to a partial report (console, message boxes, fault counters gathered so
// far) instead of tearing down the whole experiment. A cancellable ctx is
// threaded into the kernel as an instruction-budget preemption check, so a
// deadline interrupts even a wedged guest.
func run(ctx context.Context, k *guest.Kernel, spec samples.Spec, plugins Plugins) (res *Result, err error) {
	res = &Result{Name: spec.Name, Kernel: k}
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Console = k.Console
			res.MessageBoxes = k.MessageBoxes
			res.Faults = k.FaultStats()
			res.WallTime = time.Since(start)
			res.Err = fmt.Errorf("scenario %s: recovered plugin panic: %v", spec.Name, r)
			err = nil
		}
	}()
	if ctx.Done() != nil {
		k.SetPreemption(0, ctx.Err)
	}
	_, finish := attach(k, plugins)
	for _, hook := range plugins.Extra {
		hook(k)
	}
	for _, path := range spec.AutoStart {
		if _, err := k.Spawn(path, false, 0); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
	}
	budget := spec.MaxInstr
	if budget == 0 {
		budget = DefaultMaxInstr
	}
	sum, err := k.Run(budget)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return nil, &DeadlineError{Scenario: spec.Name, Instructions: sum.Instructions}
	case errors.Is(err, context.Canceled):
		return nil, &CancelError{Scenario: spec.Name, Instructions: sum.Instructions}
	case err != nil:
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	res.Summary = sum
	res.Console = k.Console
	res.MessageBoxes = k.MessageBoxes
	res.WallTime = time.Since(start)
	res.Faults = k.FaultStats()
	finish(res)
	return res, nil
}

// Record performs the live recording pass (no analysis plugins, like
// running PANDA in record mode) and returns the log.
func Record(spec samples.Spec) (*record.Log, *Result, error) {
	return RecordContext(context.Background(), spec, nil)
}

// RecordContext is Record under a fault plan, honoring a context. The
// injector disturbs the live run (lossy wire, flaky syscalls) and the
// recorder logs the post-fault event stream, so the log replays without
// re-drawing network faults. The kernel checks the context every few
// thousand guest instructions and a deadline surfaces as a
// *DeadlineError.
func RecordContext(ctx context.Context, spec samples.Spec, plan *faults.Plan) (*record.Log, *Result, error) {
	rec := record.NewRecorder(spec.Name)
	k, err := setup(spec, mode{recorder: rec})
	if err != nil {
		return nil, nil, err
	}
	k.SetFaultInjector(plan.NewInjector())
	res, err := run(ctx, k, spec, Plugins{})
	if err != nil {
		return nil, nil, err
	}
	return rec.Finish(res.Summary.Instructions), res, nil
}

// Replay re-executes a recorded run with the given plugins attached.
func Replay(spec samples.Spec, log *record.Log, plugins Plugins) (*Result, error) {
	return ReplayContext(context.Background(), spec, log, plugins, nil)
}

// ReplayContext is Replay under the fault plan the recording ran with,
// honoring a context deadline/cancellation. The plan must match: syscall
// and guest fault draws happen identically in both passes (the
// instruction stream depends on them), while network draws never re-fire
// in replay because endpoints are disabled. After the run it verifies the
// replay actually reproduced the recording and returns a
// *record.DivergenceError (also stored in Result.Err) if not.
func ReplayContext(ctx context.Context, spec samples.Spec, log *record.Log, plugins Plugins, plan *faults.Plan) (*Result, error) {
	k, err := setup(spec, mode{replayLog: log})
	if err != nil {
		return nil, err
	}
	k.SetFaultInjector(plan.NewInjector())
	res, err := run(ctx, k, spec, plugins)
	if err != nil || res.Err != nil {
		return res, err
	}
	if log.FinalInstr > 0 {
		var reason string
		switch {
		case k.UnknownFlowDrops() > 0:
			reason = fmt.Sprintf("%d logged packets hit flows the guest never opened", k.UnknownFlowDrops())
		case k.PendingEvents() > 0:
			reason = fmt.Sprintf("%d logged events were never delivered", k.PendingEvents())
		case res.Summary.Instructions != log.FinalInstr:
			reason = fmt.Sprintf("retired %d instructions, log promises %d", res.Summary.Instructions, log.FinalInstr)
		}
		if reason != "" {
			div := &record.DivergenceError{Scenario: spec.Name, At: res.Summary.Instructions, Reason: reason}
			res.Err = div
			return res, div
		}
	}
	return res, nil
}

// RunLive executes the scenario once, live, with plugins attached. The
// guest is deterministic, so detection results match the record+replay
// path.
func RunLive(spec samples.Spec, plugins Plugins) (*Result, error) {
	return RunLiveContext(context.Background(), spec, plugins, nil)
}

// RunLiveContext is RunLive under a fault plan, honoring a context
// deadline/cancellation.
func RunLiveContext(ctx context.Context, spec samples.Spec, plugins Plugins, plan *faults.Plan) (*Result, error) {
	k, err := setup(spec, mode{})
	if err != nil {
		return nil, err
	}
	k.SetFaultInjector(plan.NewInjector())
	return run(ctx, k, spec, plugins)
}

// detectPlugins is the analyst workflow's plugin set: the FAROS engine
// under the paper's policy, the Cuckoo baseline, the malfind scan, and OSI.
func detectPlugins() Plugins {
	return Plugins{Faros: &core.Config{}, Cuckoo: true, Malfind: true, OSI: true}
}

// Detect is the analyst workflow of §V.C: run the scenario with FAROS, the
// Cuckoo baseline, the malfind scan, and OSI attached. It is one live pass:
// the guest is deterministic and the recorder is independent of the
// plugins, so analyzing a replay of a fresh recording yields the same
// report. Record and replay are for recordings that are reused (traces,
// Table V).
func Detect(spec samples.Spec) (*Result, error) {
	return DetectContext(context.Background(), spec, nil)
}

// DetectContext is Detect under a fault plan, honoring a context: exceeding
// the deadline returns a typed *DeadlineError instead of running to the
// instruction budget. Result.Faults counts every fault the plan injected,
// network draws included — the same counts a recording pass reports.
func DetectContext(ctx context.Context, spec samples.Spec, plan *faults.Plan) (*Result, error) {
	return RunLiveContext(ctx, spec, detectPlugins(), plan)
}

// PerfRow is one Table V measurement.
type PerfRow struct {
	Application   string
	ReplayPlain   time.Duration
	ReplayFAROS   time.Duration
	Slowdown      float64
	Instructions  uint64
	RecordedBytes int
}

// perfRepeats is how many times each replay is timed; the fastest run is
// reported (standard microbenchmark practice — noise only ever adds time).
const perfRepeats = 7

// MeasurePerf records a workload once, then replays it repeatedly without
// any plugin and with FAROS, timing both (the Table V methodology; each
// configuration reports its fastest of perfRepeats runs). The two
// configurations are interleaved — plain, FAROS, plain, FAROS, ... — so a
// machine-speed drift mid-measurement inflates both numerators alike
// instead of skewing the ratio.
func MeasurePerf(w samples.PerfWorkload) (PerfRow, error) {
	log, _, err := Record(w.Spec)
	if err != nil {
		return PerfRow{}, err
	}
	one := func(plugins Plugins) (time.Duration, uint64, error) {
		res, err := Replay(w.Spec, log, plugins)
		if err != nil {
			return 0, 0, err
		}
		return res.WallTime, res.Summary.Instructions, nil
	}
	var plainT, farosT time.Duration
	var instrs uint64
	for i := 0; i < perfRepeats; i++ {
		pT, n, err := one(Plugins{})
		if err != nil {
			return PerfRow{}, err
		}
		fT, _, err := one(Plugins{Faros: &core.Config{}})
		if err != nil {
			return PerfRow{}, err
		}
		instrs = n
		if plainT == 0 || pT < plainT {
			plainT = pT
		}
		if farosT == 0 || fT < farosT {
			farosT = fT
		}
	}
	row := PerfRow{
		Application:  w.Display,
		ReplayPlain:  plainT,
		ReplayFAROS:  farosT,
		Instructions: instrs,
	}
	if plainT > 0 {
		row.Slowdown = float64(farosT) / float64(plainT)
	}
	if raw, _, err := EncodeTrace(w.Spec, log); err == nil {
		row.RecordedBytes = len(raw)
	}
	return row, nil
}
