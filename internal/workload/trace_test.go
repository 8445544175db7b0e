package workload

import "testing"

func TestTraceBasics(t *testing.T) {
	var b1, b2 TraceBuilder
	b1.Compute(100).Write(4).Read(4).Compute(50)
	b2.Compute(80).Read(4)
	tr := NewTrace("demo", [][]Op{b1.Ops(), b2.Ops()}, 0)
	if tr.Name() != "demo" || tr.NumTasks() != 2 || tr.TasksPerInvocation() != 0 {
		t.Fatal("trace metadata wrong")
	}
	ops, instr := tr.Task(0, nil)
	if instr != 150 {
		t.Fatalf("instr = %d, want 150", instr)
	}
	if len(ops) != 3 || ops[0] != makeOp(OpWrite, 4, 100) || ops[1] != makeOp(OpRead, 4, 0) || ops[2] != makeOp(OpCompute, 0, 50) {
		t.Fatalf("ops wrong: %+v", ops)
	}
}

func TestTraceInsertsMinimalCompute(t *testing.T) {
	var b TraceBuilder
	b.Write(8)
	tr := NewTrace("", [][]Op{b.Ops()}, 0)
	ops, instr := tr.Task(0, nil)
	if instr != 1 || ops[0] != makeOp(OpCompute, 0, 1) {
		t.Fatal("compute-free task must gain one instruction")
	}
	if tr.Name() != "trace" {
		t.Fatal("empty name must default")
	}
}

func TestTracePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty trace": func() { NewTrace("x", nil, 0) },
		"empty task":  func() { NewTrace("x", [][]Op{{}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBuilderIgnoresNonPositiveCompute(t *testing.T) {
	var b TraceBuilder
	b.Compute(0).Compute(-5).Read(1)
	if len(b.Ops()) != 1 {
		t.Fatalf("ops = %d, want 1", len(b.Ops()))
	}
}
