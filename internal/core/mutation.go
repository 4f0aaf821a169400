package core

import (
	"fmt"

	"repro/internal/pkggraph"
	"repro/internal/spec"
)

// Durable mutation log support.
//
// Algorithm 1 mutates the cache in exactly five ways: a hit refreshes
// an image's LRU position, a merge rewrites an image, an insert
// creates one, eviction deletes one, and a prune pass splits one. The
// CommitHook receives a Mutation describing each of these as it is
// applied, in application order, which is exactly what a write-ahead
// log needs to reconstruct the manager after a crash
// (internal/persist). ApplyMutation is the replay side: it re-applies
// a logged Mutation without re-running Algorithm 1's decisions, so
// recovery reproduces the logged outcomes byte for byte regardless of
// tie-breaking order.

// MutationKind identifies one of the five state-changing operations.
type MutationKind string

// The mutation kinds, named after the cache operations that emit them.
const (
	MutInsert MutationKind = "insert"
	MutMerge  MutationKind = "merge"
	MutTouch  MutationKind = "touch" // a hit: LRU refresh only
	MutDelete MutationKind = "delete"
	MutSplit  MutationKind = "split"
)

// Mutation is one durable state change. Fields record the image's
// state *after* the operation (absolute values, not deltas), so replay
// is insensitive to how the live manager arrived at them.
type Mutation struct {
	Kind    MutationKind `json:"kind"`
	ImageID uint64       `json:"image_id"`
	// LastUse is the logical clock stamped on the image (touch, merge,
	// insert). Replay advances the manager clock to at least this value.
	LastUse uint64 `json:"last_use,omitempty"`
	// Version and Merges are the image's counters after the operation.
	Version uint64 `json:"version,omitempty"`
	Merges  int    `json:"merges,omitempty"`
	// RequestBytes is the size of the request that caused the mutation
	// (touch, merge, insert); replay uses it to rebuild the I/O
	// accounting exactly.
	RequestBytes int64 `json:"request_bytes,omitempty"`
	// Packages are the image's package keys after the operation
	// (insert, merge, split). Keys, not IDs, so logs survive repository
	// reloads.
	Packages []string `json:"packages,omitempty"`
}

// CommitHook receives each Mutation immediately after it is applied
// in memory, from the goroutine driving the Manager. A nil hook costs
// one branch per mutation. Implementations must not retain the
// Packages slice beyond the call if they mutate it.
type CommitHook interface {
	Commit(mut Mutation)
}

// commit delivers mut to the configured hook, if any.
func (m *Manager) commit(mut Mutation) {
	if m.cfg.Commit != nil {
		m.cfg.Commit.Commit(mut)
	}
}

// keysOf renders a specification as portable package keys.
func (m *Manager) keysOf(s spec.Spec) []string {
	keys := make([]string, 0, s.Len())
	for _, id := range s.IDs() {
		keys = append(keys, m.repo.Package(id).Key())
	}
	return keys
}

// specFromKeys resolves package keys against the repository.
func (m *Manager) specFromKeys(keys []string) (spec.Spec, error) {
	ids := make([]pkggraph.PkgID, 0, len(keys))
	for _, key := range keys {
		id, ok := m.repo.Lookup(key)
		if !ok {
			return spec.Spec{}, fmt.Errorf("core: unknown package %q", key)
		}
		ids = append(ids, id)
	}
	return spec.New(ids), nil
}

// ApplyMutation re-applies one logged mutation during recovery. It
// never invokes the commit hook, never evicts (deletions are replayed
// explicitly), and does not rebuild hot-set windows (split tracking
// restarts fresh after recovery). The stats it accumulates match what
// the live manager recorded for the same operations.
func (m *Manager) ApplyMutation(mut Mutation) error {
	switch mut.Kind {
	case MutTouch:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: touch of unknown image %d", mut.ImageID)
		}
		img.lastUse = mut.LastUse
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Hits++
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutInsert:
		if _, ok := m.byID[mut.ImageID]; ok {
			return fmt.Errorf("core: insert of already-live image %d", mut.ImageID)
		}
		s, err := m.specFromKeys(mut.Packages)
		if err != nil {
			return fmt.Errorf("core: replaying insert of image %d: %w", mut.ImageID, err)
		}
		if s.Empty() {
			return fmt.Errorf("core: replaying insert of image %d: empty spec", mut.ImageID)
		}
		img := &Image{
			ID:      mut.ImageID,
			Spec:    s,
			Size:    s.Size(m.repo),
			Version: mut.Version,
			Merges:  mut.Merges,
			lastUse: mut.LastUse,
			sig:     m.sign(s),
			hot:     s,
		}
		m.appendImage(img)
		m.indexInsert(img)
		m.total += img.Size
		if mut.ImageID >= m.nextID {
			m.nextID = mut.ImageID + 1
		}
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Inserts++
		m.stats.BytesWritten += img.Size
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutMerge:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: merge into unknown image %d", mut.ImageID)
		}
		s, err := m.specFromKeys(mut.Packages)
		if err != nil {
			return fmt.Errorf("core: replaying merge into image %d: %w", mut.ImageID, err)
		}
		m.total -= img.Size
		img.Spec = s
		img.Size = s.Size(m.repo)
		img.Version = mut.Version
		img.Merges = mut.Merges
		img.lastUse = mut.LastUse
		img.sig = m.sign(s)
		m.indexUpdate(img)
		m.refreshBits(img)
		m.total += img.Size
		m.bumpClock(mut.LastUse)
		m.stats.Requests++
		m.stats.Merges++
		m.stats.BytesWritten += img.Size
		m.stats.RequestedBytes += mut.RequestBytes
		m.stats.ContainerEffSum += Result{ImageSize: img.Size, RequestBytes: mut.RequestBytes}.ContainerEfficiency()
		return nil

	case MutDelete:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: delete of unknown image %d", mut.ImageID)
		}
		for i, cur := range m.images {
			if cur == img {
				m.images[i] = nil
				break
			}
		}
		delete(m.byID, img.ID)
		m.indexRemove(img.ID)
		m.total -= img.Size
		m.stats.Deletes++
		m.compact()
		return nil

	case MutSplit:
		img, ok := m.byID[mut.ImageID]
		if !ok {
			return fmt.Errorf("core: split of unknown image %d", mut.ImageID)
		}
		s, err := m.specFromKeys(mut.Packages)
		if err != nil {
			return fmt.Errorf("core: replaying split of image %d: %w", mut.ImageID, err)
		}
		m.total -= img.Size
		img.Spec = s
		img.Size = s.Size(m.repo)
		img.Version = mut.Version
		img.sig = m.sign(s)
		m.indexUpdate(img)
		m.refreshBits(img)
		img.resetHot()
		m.total += img.Size
		m.stats.Splits++
		m.stats.BytesWritten += img.Size
		return nil

	default:
		return fmt.Errorf("core: unknown mutation kind %q", mut.Kind)
	}
}

// bumpClock advances the logical clock to at least t.
func (m *Manager) bumpClock(t uint64) {
	if t > m.clock {
		m.clock = t
	}
}
