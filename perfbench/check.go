package main

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// checkReply is the per-response correctness rule: a 200 naming a
// real operation on an image at least as large as the request.
func checkReply(s sample) error {
	if s.err != nil {
		return fmt.Errorf("request %d: %v", s.idx, s.err)
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("request %d: status %d", s.idx, s.status)
	}
	switch s.rep.Op {
	case "hit", "merge", "insert":
	default:
		return fmt.Errorf("request %d: op %q", s.idx, s.rep.Op)
	}
	if s.rep.ImageSize < s.rep.RequestBytes {
		return fmt.Errorf("request %d: image_size %d < request_bytes %d", s.idx, s.rep.ImageSize, s.rep.RequestBytes)
	}
	if s.rep.Packages <= 0 {
		return fmt.Errorf("request %d: packages %d", s.idx, s.rep.Packages)
	}
	return nil
}

// checker collects correctness failures; the first few are kept for
// the report.
type checker struct {
	failures []string
	count    int
}

func (c *checker) fail(format string, args ...any) {
	c.count++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checker) replies(samples []sample) (failed int) {
	for _, s := range samples {
		if err := checkReply(s); err != nil {
			c.fail("%v", err)
			failed++
		}
	}
	return failed
}

// resolve turns request keys into the spec the server builds from
// them.
func resolve(repo *pkggraph.Repo, keys []string, closed bool) (spec.Spec, error) {
	ids := make([]pkggraph.PkgID, 0, len(keys))
	for _, k := range keys {
		id, ok := repo.Lookup(k)
		if !ok {
			return spec.Spec{}, fmt.Errorf("unknown package %q", k)
		}
		ids = append(ids, id)
	}
	if closed {
		return spec.WithClosure(repo, ids), nil
	}
	return spec.New(ids), nil
}

// replayPrefix replays the serial warm-up through an in-process
// core.Manager built from the daemon's own config file; the op sequence
// and image sizes must equal the daemon's.
func (c *checker) replayPrefix(cfgPath string, repo *pkggraph.Repo, st *stream, warm []sample) error {
	site, err := config.Load(cfgPath)
	if err != nil {
		return err
	}
	m, err := core.NewManager(repo, site.CoreConfig(repo))
	if err != nil {
		return err
	}
	for _, s := range warm {
		sp, err := resolve(repo, st.keys[st.order[st.index(s.idx)]], st.close)
		if err != nil {
			return err
		}
		res, err := m.Request(sp)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", s.idx, err)
		}
		if res.Op.String() != s.rep.Op || res.ImageSize != s.rep.ImageSize {
			c.fail("request %d: daemon %s of %d bytes, in-process replay %s of %d bytes",
				s.idx, s.rep.Op, s.rep.ImageSize, res.Op, res.ImageSize)
		}
	}
	return nil
}

// statsResp is GET /v1/stats.
type statsResp struct {
	Requests       int64   `json:"requests"`
	Hits           int64   `json:"hits"`
	Merges         int64   `json:"merges"`
	Inserts        int64   `json:"inserts"`
	Deletes        int64   `json:"deletes"`
	Splits         int64   `json:"splits"`
	BytesWritten   int64   `json:"bytes_written"`
	RequestedBytes int64   `json:"requested_bytes"`
	Images         int     `json:"images"`
	TotalData      int64   `json:"total_data"`
	UniqueData     int64   `json:"unique_data"`
	CacheEff       float64 `json:"cache_efficiency"`
	ContainerEff   float64 `json:"container_efficiency"`
}

// imageInfo is one row of GET /v1/images.
type imageInfo struct {
	ID       uint64 `json:"id"`
	Version  uint64 `json:"version"`
	Size     int64  `json:"size"`
	Packages int    `json:"packages"`
	Merges   int    `json:"merges"`
}

// nodeState is what a cache daemon reports of its state.
type nodeState struct {
	Stats  statsResp
	Images []imageInfo
}

func readState(hc *http.Client, d *daemon) (nodeState, error) {
	var ns nodeState
	if err := getJSON(hc, d.url()+"/v1/stats", &ns.Stats); err != nil {
		return ns, err
	}
	if err := getJSON(hc, d.url()+"/v1/images", &ns.Images); err != nil {
		return ns, err
	}
	sort.Slice(ns.Images, func(i, j int) bool { return ns.Images[i].ID < ns.Images[j].ID })
	return ns, nil
}

func (c *checker) sameState(name string, before, after nodeState) {
	if !reflect.DeepEqual(before.Stats, after.Stats) {
		c.fail("%s: /v1/stats after kill -9 restart %+v, before %+v", name, after.Stats, before.Stats)
	}
	if !reflect.DeepEqual(before.Images, after.Images) {
		c.fail("%s: /v1/images after kill -9 restart differ (%d images, before %d)", name, len(after.Images), len(before.Images))
	}
}
