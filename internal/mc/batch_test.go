package mc

import (
	"fmt"
	"testing"

	"repro/internal/sched"
	"repro/internal/tm"
)

// litmusRun is one concrete execution of a litmus program: its recorded
// history and the final value of every variable.
type litmusRun struct {
	hist  *History
	final []uint64
	sched sched.Stats
}

// runLitmusOnce executes one litmus program once (one attempt per thread,
// like the explorer) under the given conductor.
func runLitmusOnce(t *testing.T, prog Program, engine string, run func(*sched.Sim, func(*sched.Thread))) litmusRun {
	t.Helper()
	e, err := tm.NewEngine(engine, tm.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range prog.Init {
		e.NonTxWrite(varAddr(v), prog.Init[v])
	}
	var h History
	s := sched.New(len(prog.Threads), 1)
	run(s, func(th *sched.Thread) {
		id := th.ID()
		h.append(Op{Txn: id, Kind: OpBegin})
		err := tm.RunOnce(e, th, func(tx tm.Txn) error {
			prog.Threads[id](&Tx{id: id, txn: tx, h: &h})
			return nil
		})
		if err == nil {
			h.append(Op{Txn: id, Kind: OpCommit})
		} else {
			h.append(Op{Txn: id, Kind: OpAbort})
		}
	})
	final := make([]uint64, len(prog.Init))
	for v := range prog.Init {
		final[v] = e.NonTxRead(varAddr(v))
	}
	return litmusRun{hist: h.Clone(), final: final, sched: s.Stats()}
}

// project returns the Txn-id-filtered op subsequence of a history when
// keep matches, as a printable key.
func project(h *History, keep func(Op) bool) string {
	var sub History
	for _, op := range h.Ops {
		if keep(op) {
			sub.Ops = append(sub.Ops, op)
		}
	}
	return sub.Key()
}

// TestLitmusBatchedVsPerEvent pins horizon batching on the litmus corpus:
// a single concrete execution of every program, on every engine, is
// simulation-equivalent whether the heap conductor batches multi-event
// quanta or the reference conductor (sched.Sim.Slow) schedules strictly
// per event — every thread performs the same ops and reads the same
// values, commits and aborts happen in the same global order, and memory
// ends in the same state.
//
// The full global interleaving of the *recorded* history is deliberately
// not compared for the batched run: mc's Tx appends ops in real execution
// order, which inside a batched quantum runs ahead of simulated order, so
// the log interleaves differently even though the simulation is
// identical. Recording a per-access global order is exactly the tracer
// contract, and tracers disable batching (core.SetTracer); the model
// checker itself always schedules per event (TestRunChooseNeverBatches).
func TestLitmusBatchedVsPerEvent(t *testing.T) {
	for _, prog := range Programs() {
		for _, engine := range tm.Engines() {
			t.Run(prog.Name+"/"+engine, func(t *testing.T) {
				b := runLitmusOnce(t, prog, engine, (*sched.Sim).Run)
				p := runLitmusOnce(t, prog, engine, (*sched.Sim).Slow)
				// Batched vs per-event: same per-thread op streams...
				for id := range prog.Threads {
					keep := func(op Op) bool { return op.Txn == id }
					if bt, pt := project(b.hist, keep), project(p.hist, keep); bt != pt {
						t.Errorf("thread %d op stream diverges:\nbatched   %s\nper-event %s", id, bt, pt)
					}
				}
				// ...same global commit/abort/begin order...
				outcome := func(op Op) bool { return op.Kind != OpRead && op.Kind != OpWrite }
				if bo, po := project(b.hist, outcome), project(p.hist, outcome); bo != po {
					t.Errorf("transaction outcome order diverges:\nbatched   %s\nper-event %s", bo, po)
				}
				// ...same final memory.
				if fmt.Sprint(b.final) != fmt.Sprint(p.final) {
					t.Errorf("final values diverge: batched %v, per-event %v", b.final, p.final)
				}
			})
		}
	}
}

// TestRunChooseNeverBatches pins the enumeration claim directly: the
// chooser-driven conductor the model checker explores with schedules
// strictly per event, even while the engine publishes batching hints —
// every schedule the explorer thinks it enumerated is a schedule that
// actually happened, recorded in exact simulated order. The default
// chooser implements the production policy, so its full history must
// match the per-event reference conductor's byte for byte.
func TestRunChooseNeverBatches(t *testing.T) {
	for _, prog := range Programs() {
		for _, engine := range tm.Engines() {
			t.Run(prog.Name+"/"+engine, func(t *testing.T) {
				p := runLitmusOnce(t, prog, engine, (*sched.Sim).Slow)
				c := runLitmusOnce(t, prog, engine, func(s *sched.Sim, body func(*sched.Thread)) {
					s.RunChoose(body, sched.DefaultChooser{})
				})
				if c.sched.BatchedEvents != 0 {
					t.Errorf("RunChoose batched %d events; the explorer's schedule space would be a lie", c.sched.BatchedEvents)
				}
				if ck, pk := c.hist.Key(), p.hist.Key(); ck != pk {
					t.Errorf("default-chooser history diverges from per-event conductor:\nchooser   %s\nper-event %s", ck, pk)
				}
				if fmt.Sprint(c.final) != fmt.Sprint(p.final) {
					t.Errorf("final values diverge: chooser %v, per-event %v", c.final, p.final)
				}
			})
		}
	}
}
