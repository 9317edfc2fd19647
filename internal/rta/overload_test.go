package rta

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/task"
)

// Necessary-condition pruning tests: ProcState.Overloaded may only reject
// probes exact RTA rejects, and the cached utilization it reads must be
// bit-identical to a fresh in-order sum after every mutation.

// resumUtil is the reference the cache must equal: the surcharged
// utilization of list summed in priority order.
func resumUtil(list []task.Subtask, s task.Time) float64 {
	u := 0.0
	for _, sub := range list {
		u += float64(sub.C+s) / float64(sub.T)
	}
	return u
}

func checkUtilCache(t *testing.T, ps *ProcState, list []task.Subtask, s task.Time, ctx string) {
	t.Helper()
	if got, want := ps.Utilization(), resumUtil(list, s); got != want {
		t.Fatalf("%s: cached utilization %v, fresh in-order sum %v (diff %g)", ctx, got, want, got-want)
	}
}

// FuzzOverloadedImpliesReject drives admission and removal streams through
// a ProcState with a nonzero surcharge class. For every candidate, an
// Overloaded verdict must coincide with a rejection by the scalar
// from-scratch oracle, AdmitAt must agree with that oracle, and the cached
// utilization must equal the fresh sum. Each 4-byte group is one operation:
// selector low bits 3 remove a resident, bit 2 reuses a resident's priority
// key; b2 scales the candidate's C up to its whole period, so streams reach
// U > 1 quickly.
func FuzzOverloadedImpliesReject(f *testing.F) {
	f.Add([]byte{0, 40, 120, 3, 0, 30, 200, 9, 0, 20, 250, 1, 2, 90, 255, 4, 3, 1, 0, 0, 0, 60, 90, 2}, uint8(0))
	f.Add([]byte{0, 10, 128, 0, 0, 10, 128, 0, 0, 10, 2, 0, 2, 200, 60, 1, 3, 0, 0, 0, 0, 10, 250, 0}, uint8(1))
	f.Add([]byte{0, 255, 80, 7, 0, 100, 90, 3, 2, 7, 70, 2, 0, 50, 100, 5, 0, 33, 255, 0}, uint8(2))
	// Exactly full: two (5, 10) loads reach U = 1, which RTA admits (R = 10)
	// and the epsilon must not prune; a third load then overloads.
	f.Add([]byte{0, 0, 110, 0, 0, 0, 110, 0, 0, 0, 30, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sur uint8) {
		if len(data) > 160 {
			data = data[:160]
		}
		s := task.Time(sur % 4)
		ps := &ProcState{Surcharge: s}
		var list []task.Subtask
		next := 0
		for op := 0; len(data) >= 4; op++ {
			sel, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			ctx := fmt.Sprintf("op %d (surcharge %d)", op, s)
			if sel&3 == 3 && len(list) > 0 {
				pos := int(b1) % len(list)
				ps.Remove(pos)
				list = append(list[:pos], list[pos+1:]...)
				checkUtilCache(t, ps, list, s, ctx)
				continue
			}
			T := task.Time(10 + int(b1)*4)
			c := 1 + task.Time(b2)*T/256
			d := T - task.Time(int(b3)%(int(T)/4+1))
			if d < c {
				d = c
			}
			prio := next
			if sel&2 == 2 && len(list) > 0 {
				prio = list[int(b3)%len(list)].TaskIndex
			}
			next += 2
			want := SchedulableWithExtraAt(surchargedView(list, s), prio, c+s, T, d)
			if ps.Overloaded(c, T) && want {
				t.Fatalf("%s: Overloaded(%d,%d) with U=%v, but the scalar oracle admits", ctx, c, T, ps.Utilization())
			}
			got := ps.AdmitAt(prio, c, T, d)
			if got != want {
				t.Fatalf("%s: AdmitAt(%d,%d,%d,%d)=%v, scalar oracle %v", ctx, prio, c, T, d, got, want)
			}
			if got {
				sub := task.Subtask{TaskIndex: prio, Part: 1, C: c, T: T, Deadline: d, Tail: true}
				list = insertSub(list, ps.Insert(sub), sub)
			}
			checkUtilCache(t, ps, list, s, ctx)
		}
	})
}

// TestUtilizationCacheBitIdentical inserts and removes arbitrary residents
// (no admission test, so the sums reach well past 1) and requires the cached
// utilization to equal a fresh in-order re-sum with ==, never within a
// tolerance: min-utilization and worst-fit choices compare these floats, so
// one rounding step of drift could flip a tie.
func TestUtilizationCacheBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		s := task.Time(r.Intn(4))
		ps := &ProcState{Surcharge: s}
		var list []task.Subtask
		for op := 0; op < 60; op++ {
			ctx := fmt.Sprintf("trial %d op %d", trial, op)
			if len(list) > 0 && r.Intn(3) == 0 {
				pos := r.Intn(len(list))
				ps.Remove(pos)
				list = append(list[:pos], list[pos+1:]...)
			} else {
				T := task.Time(3 + r.Intn(997))
				c := task.Time(1 + r.Intn(int(T)))
				sub := task.Subtask{TaskIndex: r.Intn(40), Part: 1, C: c, T: T, Deadline: T, Tail: true}
				list = insertSub(list, ps.Insert(sub), sub)
			}
			checkUtilCache(t, ps, list, s, ctx)
		}
		ps.Reset(s)
		checkUtilCache(t, ps, nil, s, fmt.Sprintf("trial %d after Reset", trial))
	}
}
