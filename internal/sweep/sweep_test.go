package sweep

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out, err := Map(workers, n, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != n {
				t.Fatalf("got %d results, want %d", len(out), n)
			}
			for i, v := range out {
				if v != i*i {
					t.Errorf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapRunsEachPointOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int64
	_, err := Map(8, n, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("point %d ran %d times", i, c)
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Several points fail; serial and parallel must report the same
	// (lowest-index) error.
	fail := map[int]bool{17: true, 42: true, 91: true}
	fn := func(i int) (int, error) {
		if fail[i] {
			return 0, fmt.Errorf("point %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(workers, 100, fn)
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if got, want := err.Error(), "point 17 failed"; got != want {
			t.Errorf("workers=%d: err = %q, want %q", workers, got, want)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || out != nil {
		t.Errorf("Map over empty grid = (%v, %v), want (nil, nil)", out, err)
	}
}
