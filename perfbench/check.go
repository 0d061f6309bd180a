package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"instrsample/internal/bench"
	"instrsample/internal/experiment"
	"instrsample/internal/ir"
	"instrsample/internal/vm"
)

// refKey names one reference run: an uninstrumented program at a scale.
func refKey(benchName string, scale float64) string {
	return fmt.Sprintf("%s@%g", benchName, scale)
}

// refResult is a program's observable behaviour, which every sampled,
// instrumented or cached run of it must reproduce exactly.
type refResult struct {
	Return int64   `json:"return"`
	Output []int64 `json:"output,omitempty"`
}

func (r refResult) equal(ret int64, out []int64) bool {
	return r.Return == ret && slices.Equal(r.Output, out)
}

// buildBench builds a suite program (or "resonant") at a scale.
func buildBench(name string, scale float64) (*ir.Program, error) {
	if name == "resonant" {
		return bench.Resonant(scale), nil
	}
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build(scale), nil
}

// referenceRun runs the program uninstrumented on the reference
// dispatcher: the simple loop the differential tests keep as ground
// truth, not the fast tiers the system under test uses.
func referenceRun(benchName string, scale float64) (refResult, error) {
	prog, err := buildBench(benchName, scale)
	if err != nil {
		return refResult{}, err
	}
	out, err := vm.New(prog, vm.Config{Reference: true}).Run()
	if err != nil {
		return refResult{}, fmt.Errorf("reference %s: %w", refKey(benchName, scale), err)
	}
	return refResult{Return: out.Return, Output: out.Output}, nil
}

// refs holds reference results, persisted per build of this benchmark
// (its executable hash covers the bench and vm code it runs), so a
// reference computed by one run serves every later run of the same
// build.
type refs struct {
	path string
	mu   sync.Mutex
	m    map[string]refResult
}

func openRefs(dir string) (*refs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &refs{path: filepath.Join(dir, experiment.BuildID()+".json"), m: map[string]refResult{}}
	data, err := os.ReadFile(r.path)
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &r.m); err != nil {
		return nil, fmt.Errorf("%s: %w", r.path, err)
	}
	return r, nil
}

func (r *refs) get(key string) (refResult, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[key]
	return v, ok
}

// refJob is one reference still to compute.
type refJob struct {
	bench string
	scale float64
}

// ensure computes the missing references on two goroutines and saves
// the set.
func (r *refs) ensure(jobs []refJob) error {
	var todo []refJob
	seen := map[string]bool{}
	for _, j := range jobs {
		k := refKey(j.bench, j.scale)
		if _, ok := r.get(k); ok || seen[k] {
			continue
		}
		seen[k] = true
		todo = append(todo, j)
	}
	if len(todo) == 0 {
		return nil
	}
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				res, err := referenceRun(todo[i].bench, todo[i].scale)
				if err != nil {
					errs[i] = err
					continue
				}
				r.mu.Lock()
				r.m[refKey(todo[i].bench, todo[i].scale)] = res
				r.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return r.save()
}

func (r *refs) save() error {
	r.mu.Lock()
	data, err := json.Marshal(r.m)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path)
}

// jobResult is the part of a job's result the check reads.
type jobResult struct {
	Return int64   `json:"return"`
	Output []int64 `json:"output"`
	Oracle *struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	} `json:"oracle"`
}

// checkJob checks a done job against its reference: the same Return and
// Output (the paper's semantics-preservation guarantee), and a clean
// oracle verdict when the job asked for one.
func checkJob(r *refs, benchName string, scale float64, verify bool, res *jobResult) error {
	if res == nil {
		return errors.New("done job has no result")
	}
	want, ok := r.get(refKey(benchName, scale))
	if !ok {
		return fmt.Errorf("no reference for %s", refKey(benchName, scale))
	}
	if !want.equal(res.Return, res.Output) {
		return fmt.Errorf("%s: got return %d output %v, reference %d %v",
			refKey(benchName, scale), res.Return, res.Output, want.Return, want.Output)
	}
	if verify {
		switch {
		case res.Oracle == nil:
			return fmt.Errorf("%s: verify job carries no oracle verdict", refKey(benchName, scale))
		case !res.Oracle.OK:
			return fmt.Errorf("%s: oracle: %s", refKey(benchName, scale), res.Oracle.Error)
		}
	}
	return nil
}
