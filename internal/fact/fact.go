// Package fact implements the fact manager of Section 3.2. Transformations
// establish facts as they rewrite a module, and later transformations'
// preconditions take those facts on trust:
//
//   - DeadBlock(b): block b will never be executed;
//   - Synonymous(u[i⃗], v[j⃗]): the values agree wherever both are available;
//   - Irrelevant(i): the value of id i does not affect the final result;
//   - IrrelevantPointee(p): the data pointed to by p does not affect the
//     final result;
//   - LiveSafe(f): calling f from anywhere does not affect the final result
//     so long as IrrelevantPointee pointers are passed for pointer args.
//
// Facts are never serialized: a transformation sequence replayed from the
// original context re-establishes exactly the facts it needs.
package fact

import (
	"fmt"
	"sort"
	"strings"

	"spirvfuzz/internal/spirv"
)

// Access names a value or a component of a composite value: the id plus a
// vector of literal indices (empty for the whole value). Synonymous facts
// relate accesses.
type Access struct {
	ID   spirv.ID
	Path []uint32
}

// A returns a whole-value access.
func A(id spirv.ID) Access { return Access{ID: id} }

// At returns a component access.
func At(id spirv.ID, path ...uint32) Access { return Access{ID: id, Path: path} }

// Key returns a canonical string for map keys.
func (a Access) Key() string {
	if len(a.Path) == 0 {
		return fmt.Sprintf("%%%d", a.ID)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%%%d", a.ID)
	for _, i := range a.Path {
		fmt.Fprintf(&sb, "[%d]", i)
	}
	return sb.String()
}

// Set is a fact set. The zero value is not usable; call NewSet.
type Set struct {
	dead              map[spirv.ID]bool
	irrelevant        map[spirv.ID]bool
	irrelevantPointee map[spirv.ID]bool
	liveSafe          map[spirv.ID]bool

	// Synonym equivalence classes: union-find over access keys.
	parent map[string]string
	access map[string]Access
}

// NewSet returns an empty fact set.
func NewSet() *Set {
	return &Set{
		dead:              make(map[spirv.ID]bool),
		irrelevant:        make(map[spirv.ID]bool),
		irrelevantPointee: make(map[spirv.ID]bool),
		liveSafe:          make(map[spirv.ID]bool),
		parent:            make(map[string]string),
		access:            make(map[string]Access),
	}
}

// Clone deep-copies the set. Maps are presized from the source: replay-heavy
// reduction clones fact sets on every ddmin query, so avoiding rehash growth
// matters.
func (s *Set) Clone() *Set {
	c := &Set{
		dead:              make(map[spirv.ID]bool, len(s.dead)),
		irrelevant:        make(map[spirv.ID]bool, len(s.irrelevant)),
		irrelevantPointee: make(map[spirv.ID]bool, len(s.irrelevantPointee)),
		liveSafe:          make(map[spirv.ID]bool, len(s.liveSafe)),
		parent:            make(map[string]string, len(s.parent)),
		access:            make(map[string]Access, len(s.access)),
	}
	for k := range s.dead {
		c.dead[k] = true
	}
	for k := range s.irrelevant {
		c.irrelevant[k] = true
	}
	for k := range s.irrelevantPointee {
		c.irrelevantPointee[k] = true
	}
	for k := range s.liveSafe {
		c.liveSafe[k] = true
	}
	for k, v := range s.parent {
		c.parent[k] = v
	}
	for k, v := range s.access {
		c.access[k] = v
	}
	return c
}

// ApproxBytes estimates the retained size of the set, for cache accounting
// (internal/replay budgets context snapshots by bytes). Rough is fine: the
// estimate only steers eviction order, never semantics.
func (s *Set) ApproxBytes() int {
	n := 96 + 16*(len(s.dead)+len(s.irrelevant)+len(s.irrelevantPointee)+len(s.liveSafe))
	for k := range s.parent {
		n += 48 + 2*len(k)
	}
	for k, a := range s.access {
		n += 48 + len(k) + 4*len(a.Path)
	}
	return n
}

// MarkDeadBlock records DeadBlock(b).
func (s *Set) MarkDeadBlock(b spirv.ID) { s.dead[b] = true }

// IsDeadBlock reports DeadBlock(b).
func (s *Set) IsDeadBlock(b spirv.ID) bool { return s.dead[b] }

// MarkIrrelevant records Irrelevant(id).
func (s *Set) MarkIrrelevant(id spirv.ID) { s.irrelevant[id] = true }

// IsIrrelevant reports Irrelevant(id).
func (s *Set) IsIrrelevant(id spirv.ID) bool { return s.irrelevant[id] }

// MarkIrrelevantPointee records IrrelevantPointee(p).
func (s *Set) MarkIrrelevantPointee(p spirv.ID) { s.irrelevantPointee[p] = true }

// IsIrrelevantPointee reports IrrelevantPointee(p).
func (s *Set) IsIrrelevantPointee(p spirv.ID) bool { return s.irrelevantPointee[p] }

// MarkLiveSafe records LiveSafe(f).
func (s *Set) MarkLiveSafe(f spirv.ID) { s.liveSafe[f] = true }

// IsLiveSafe reports LiveSafe(f).
func (s *Set) IsLiveSafe(f spirv.ID) bool { return s.liveSafe[f] }

func (s *Set) find(k string) string {
	p, ok := s.parent[k]
	if !ok || p == k {
		return k
	}
	root := s.find(p)
	s.parent[k] = root
	return root
}

// AddSynonym records Synonymous(a, b), merging their equivalence classes.
func (s *Set) AddSynonym(a, b Access) {
	ka, kb := a.Key(), b.Key()
	s.access[ka], s.access[kb] = a, b
	if _, ok := s.parent[ka]; !ok {
		s.parent[ka] = ka
	}
	if _, ok := s.parent[kb]; !ok {
		s.parent[kb] = kb
	}
	ra, rb := s.find(ka), s.find(kb)
	if ra != rb {
		s.parent[ra] = rb
	}
}

// AreSynonymous reports whether Synonymous(a, b) is known.
func (s *Set) AreSynonymous(a, b Access) bool {
	ka, kb := a.Key(), b.Key()
	if ka == kb {
		return true
	}
	if _, ok := s.parent[ka]; !ok {
		return false
	}
	if _, ok := s.parent[kb]; !ok {
		return false
	}
	return s.find(ka) == s.find(kb)
}

// SynonymsOf returns every known access synonymous with a (excluding a
// itself), ordered by access key. Deterministic ordering matters: fuzzer
// passes sample from this list, and campaigns must be reproducible.
func (s *Set) SynonymsOf(a Access) []Access {
	ka := a.Key()
	if _, ok := s.parent[ka]; !ok {
		return nil
	}
	root := s.find(ka)
	var keys []string
	for k := range s.parent {
		if k != ka && s.find(k) == root {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]Access, len(keys))
	for i, k := range keys {
		out[i] = s.access[k]
	}
	return out
}

// WholeSynonymsOf returns the ids known synonymous with the whole value of
// id (path-free accesses only) — the candidates ReplaceIdWithSynonym can
// substitute directly.
func (s *Set) WholeSynonymsOf(id spirv.ID) []spirv.ID {
	var out []spirv.ID
	for _, a := range s.SynonymsOf(A(id)) {
		if len(a.Path) == 0 {
			out = append(out, a.ID)
		}
	}
	return out
}

// String renders the set canonically: the sorted ids of each kind of
// unary fact, then each synonym class as its sorted access keys, classes
// ordered by their first key. Sets holding the same facts render the same,
// however their union-find forests were built.
func (s *Set) String() string {
	var sb strings.Builder
	for _, f := range []struct {
		name string
		ids  map[spirv.ID]bool
	}{{"dead", s.dead}, {"irrelevant", s.irrelevant}, {"irrelevant-pointee", s.irrelevantPointee}, {"live-safe", s.liveSafe}} {
		fmt.Fprintf(&sb, "%s %v\n", f.name, sortedIDs(f.ids))
	}
	classes := map[string][]string{}
	for k := range s.parent {
		root := s.find(k)
		classes[root] = append(classes[root], k)
	}
	sorted := make([][]string, 0, len(classes))
	for _, c := range classes {
		sort.Strings(c)
		sorted = append(sorted, c)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for _, c := range sorted {
		fmt.Fprintf(&sb, "synonyms %s\n", strings.Join(c, " "))
	}
	return sb.String()
}

// DeadBlocks returns all ids with DeadBlock facts, in ascending id order
// (fuzzer passes scan these; campaigns must be reproducible).
func (s *Set) DeadBlocks() []spirv.ID { return sortedIDs(s.dead) }

// IrrelevantIDs returns all ids with Irrelevant facts, in ascending order.
func (s *Set) IrrelevantIDs() []spirv.ID { return sortedIDs(s.irrelevant) }

// IrrelevantPointees returns all ids with IrrelevantPointee facts, in
// ascending order.
func (s *Set) IrrelevantPointees() []spirv.ID { return sortedIDs(s.irrelevantPointee) }

func sortedIDs(set map[spirv.ID]bool) []spirv.ID {
	out := make([]spirv.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
