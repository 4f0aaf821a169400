package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/pkggraph"
)

// stream is one workload's request sequence, generated from the seed
// before any timing starts. Request i sends bodies[order[i]]; the
// first prefix requests are the serial warm-up.
type stream struct {
	bodies [][]byte
	keys   [][]string // package keys of each body
	close  bool       // bodies ask the server to add the closure
	order  []int
	prefix int
	// arrivals are the fixed-rate phase's Poisson send offsets.
	arrivals []time.Duration
}

// body returns the i-th request's bytes, wrapping past the end of the
// generated order into the timed part (the saturation phase is a
// closed loop, so its length is not known in advance).
func (s *stream) body(i int) []byte { return s.bodies[s.order[s.index(i)]] }

func (s *stream) index(i int) int {
	if i < len(s.order) {
		return i
	}
	timed := len(s.order) - s.prefix
	return s.prefix + (i-s.prefix)%timed
}

// sizer draws initial-selection sizes uniform over 1..100, stratified:
// each run of sizeBlock draws covers the range evenly in a shuffled
// order, so a 50-spec pool has the same size mix under every seed and
// the seed changes which packages are chosen, not how many.
type sizer struct {
	rng   *rand.Rand
	block []int
}

const sizeBlock = 50

func (z *sizer) next() int {
	if len(z.block) == 0 {
		for k := 0; k < sizeBlock; k++ {
			z.block = append(z.block, 1+int((float64(k)+z.rng.Float64())*100/sizeBlock))
		}
		z.rng.Shuffle(len(z.block), func(i, j int) { z.block[i], z.block[j] = z.block[j], z.block[i] })
	}
	n := z.block[0]
	z.block = z.block[1:]
	return n
}

// initialSelection is the paper's request scheme: a random selection
// of n distinct packages, n uniform over 1..100.
func initialSelection(rng *rand.Rand, repo *pkggraph.Repo, n int) []pkggraph.PkgID {
	seen := make(map[pkggraph.PkgID]bool, n)
	ids := make([]pkggraph.PkgID, 0, n)
	for len(ids) < n {
		id := pkggraph.PkgID(rng.Intn(repo.Len()))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

func keysOf(repo *pkggraph.Repo, ids []pkggraph.PkgID) []string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = repo.Package(id).Key()
	}
	return keys
}

func encodeBody(keys []string, close bool) []byte {
	b, err := json.Marshal(struct {
		Packages []string `json:"packages"`
		Close    bool     `json:"close"`
	}{keys, close})
	if err != nil {
		panic(err) // a []string and a bool always encode
	}
	return b
}

// newStream builds the workload's inputs: Poisson arrivals spanning
// arrivalsDur, and an order whose timed part holds timed requests
// before it wraps.
func newStream(w workload, repo *pkggraph.Repo, seed int64, arrivalsDur time.Duration, timed int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := &sizer{rng: rand.New(rand.NewSource(seed ^ 0x512e5))}
	s := &stream{close: w.closeBodies}
	addSpec := func() {
		ids := initialSelection(rng, repo, sizes.next())
		if !w.closeBodies {
			ids = repo.Closure(ids)
		}
		keys := keysOf(repo, ids)
		s.keys = append(s.keys, keys)
		s.bodies = append(s.bodies, encodeBody(keys, w.closeBodies))
	}
	switch w.traffic {
	case trafficPool:
		// A fixed pool, inserted serially during warm-up, then drawn
		// uniformly: every timed request repeats a resident spec.
		for i := 0; i < w.pool; i++ {
			addSpec()
			s.order = append(s.order, i)
		}
		s.prefix = w.pool
		for i := 0; i < timed; i++ {
			s.order = append(s.order, rng.Intn(w.pool))
		}
	case trafficRepeat:
		// Fresh specs, each repeated w.repeats times, shuffled within
		// blocks of w.block specs.
		total := w.prefix + timed
		unique := (total + w.repeats - 1) / w.repeats
		for start := 0; start < unique; start += w.block {
			n := w.block
			if start+n > unique {
				n = unique - start
			}
			var seg []int
			for i := 0; i < n; i++ {
				addSpec()
				for r := 0; r < w.repeats; r++ {
					seg = append(seg, start+i)
				}
			}
			rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
			s.order = append(s.order, seg...)
		}
		s.prefix = w.prefix
	default:
		return nil, fmt.Errorf("unknown traffic kind %d", w.traffic)
	}
	// Poisson arrivals: exponential gaps at the workload's fixed rate.
	arng := rand.New(rand.NewSource(seed ^ 0x5eed0a11))
	var t float64
	for {
		t += arng.ExpFloat64() / w.rate
		if t >= arrivalsDur.Seconds() {
			break
		}
		s.arrivals = append(s.arrivals, time.Duration(t*float64(time.Second)))
	}
	if need := s.prefix + len(s.arrivals); need > len(s.order) {
		return nil, fmt.Errorf("stream of %d requests cannot cover %d warm-up and fixed-rate requests", len(s.order), need)
	}
	return s, nil
}

// timedBudget sizes the generated order: the expected arrivals of every
// fixed-rate slice a run may send, room for the saturation phase at twice the
// workload's expected throughput, and the recovery tails with their
// block alignment.
func timedBudget(w workload, fixedDur, satDur time.Duration) int {
	return int(math.Ceil(w.rate*fixedDur.Seconds()*1.3+2*w.satGuess*satDur.Seconds())) +
		(recoveryRounds+1)*w.tailLen()
}
