package main

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"testing"
	"time"
)

// served answers body b once from a live instance.
func served(t *testing.T, d workloadDef, in inputs, b int) reply {
	t.Helper()
	inst, err := startInstance(io.Discard, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	cl := newClient(inst.addr, d.path)
	defer cl.tr.CloseIdleConnections()
	var buf bytes.Buffer
	r := cl.send(context.Background(), in.bodies[b], time.Now(), &buf)
	if r.err != nil || r.status != 200 {
		t.Fatalf("served: %v, status %d", r.err, r.status)
	}
	r.body, r.data = b, bytes.Clone(r.data)
	return r
}

// tamper changes the first p_in value's leading digit.
func tamper(t *testing.T, data []byte) []byte {
	t.Helper()
	re := regexp.MustCompile(`"p_in": ?(\d)`)
	loc := re.FindSubmatchIndex(data)
	if loc == nil {
		t.Fatal("no p_in in the answer")
	}
	out := bytes.Clone(data)
	out[loc[2]] = '0' + (out[loc[2]]-'0'+1)%10
	return out
}

func TestWrongAnswersAreCaught(t *testing.T) {
	for _, name := range []string{"flex-small", "sweep-cold", "scatter-warm"} {
		t.Run(name, func(t *testing.T) {
			d := mustWorkload(t, name)
			in := newSource(d, 1).round()
			// Without a pool only a seeded sample of answers is compared
			// value by value; tamper with one in the sample.
			b := 0
			for d.pool == 0 && !sampled(1, b, 1.0/8) {
				b++
			}
			good := served(t, d, in, b)

			ck := newChecker(d, in, 1)
			if !ck.warm(b, good) || !ck.measure(b, good) {
				t.Fatal("a correct answer was refused")
			}
			if late, err := ck.validate(context.Background()); err != nil || late != 0 || ck.wrong != 0 {
				t.Fatalf("correct answers: late %d, wrong %d, err %v", late, ck.wrong, err)
			}

			bad := good
			bad.data = tamper(t, good.data)
			ck = newChecker(d, in, 1)
			ck.warm(b, bad)
			ck.measure(b, bad)
			if late, err := ck.validate(context.Background()); err != nil || late == 0 || ck.wrong == 0 {
				t.Errorf("a tampered answer: late %d, wrong %d, err %v", late, ck.wrong, err)
			}
			if d.pool > 0 {
				ck = newChecker(d, in, 1)
				ck.warm(b, good)
				if ck.measure(b, bad) || ck.wrong != 1 {
					t.Errorf("an answer unlike its reference was accepted")
				}
			}
		})
	}
}
