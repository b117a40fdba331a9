// Package hint models the client-supplied hint sets that CLIC consumes.
//
// A hint set is an ordered tuple of categorical (type, value) pairs attached
// by a storage client to each I/O request. CLIC treats hint sets as opaque:
// it neither assumes nor exploits any ordering on hint values (paper §2).
// To make that opacity cheap, hint sets are interned into dense uint32 IDs
// through a Dict; everything downstream of trace generation works with IDs.
package hint

import (
	"fmt"
	"sort"
	"strings"
)

// Field is a single (hint type, hint value) pair.
type Field struct {
	Type  string
	Value string
}

// Set is an ordered tuple of hint fields. The order is defined by the client
// that generates the hints and is preserved verbatim; two sets with the same
// fields in different orders are distinct hint sets.
type Set []Field

// Key returns the canonical encoding of the set, "type=value|type=value|…".
// Types and values must not contain '=' or '|'; Make enforces this.
func (s Set) Key() string {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	for i, f := range s {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(f.Type)
		b.WriteByte('=')
		b.WriteString(f.Value)
	}
	return b.String()
}

// String implements fmt.Stringer using the canonical key encoding.
func (s Set) String() string { return s.Key() }

// Clone returns a deep copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Value returns the value of the first field with the given type and
// whether such a field exists.
func (s Set) Value(typ string) (string, bool) {
	for _, f := range s {
		if f.Type == typ {
			return f.Value, true
		}
	}
	return "", false
}

// With returns a new set with the given field appended.
func (s Set) With(typ, value string) Set {
	out := make(Set, 0, len(s)+1)
	out = append(out, s...)
	out = append(out, Field{Type: typ, Value: value})
	return out
}

// Namespace returns a copy of the set with every hint type prefixed by
// "client/". The paper requires that hint types from distinct clients be
// treated as distinct even when the clients are instances of the same
// application (§2); prefixing achieves that under interning.
func (s Set) Namespace(client string) Set {
	out := make(Set, len(s))
	for i, f := range s {
		out[i] = Field{Type: client + "/" + f.Type, Value: f.Value}
	}
	return out
}

// Make builds a Set from alternating type, value strings. It panics if the
// argument count is odd or any component contains a reserved character;
// it is intended for statically-known hint shapes in generators and tests.
func Make(pairs ...string) Set {
	if len(pairs)%2 != 0 {
		panic("hint.Make: odd number of arguments")
	}
	s := make(Set, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		checkComponent(pairs[i])
		checkComponent(pairs[i+1])
		s = append(s, Field{Type: pairs[i], Value: pairs[i+1]})
	}
	return s
}

func checkComponent(c string) {
	if strings.ContainsAny(c, "=|") {
		panic(fmt.Sprintf("hint: component %q contains reserved character", c))
	}
}

// Parse decodes a canonical key produced by Set.Key. An empty string decodes
// to an empty set.
func Parse(key string) (Set, error) {
	if key == "" {
		return nil, nil
	}
	parts := strings.Split(key, "|")
	s := make(Set, 0, len(parts))
	for _, p := range parts {
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			return nil, fmt.Errorf("hint: malformed field %q in key %q", p, key)
		}
		s = append(s, Field{Type: p[:eq], Value: p[eq+1:]})
	}
	return s, nil
}

// ID is a dense identifier for an interned hint set. IDs are only meaningful
// relative to the Dict that produced them.
type ID = uint32

// Dict interns hint sets to dense IDs. It is not safe for concurrent use;
// the simulator is single-threaded by design so every run is deterministic.
type Dict struct {
	byKey map[string]ID
	keys  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byKey: make(map[string]ID)}
}

// Intern returns the ID for the set, assigning a fresh one if the set has
// not been seen before.
func (d *Dict) Intern(s Set) ID { return d.InternKey(s.Key()) }

// InternKey is Intern for an already-encoded canonical key.
func (d *Dict) InternKey(key string) ID {
	if id, ok := d.byKey[key]; ok {
		return id
	}
	id := ID(len(d.keys))
	d.byKey[key] = id
	d.keys = append(d.keys, key)
	return id
}

// Lookup returns the ID for the set if it is already interned.
func (d *Dict) Lookup(s Set) (ID, bool) { return d.LookupKey(s.Key()) }

// LookupKey is Lookup for an already-encoded canonical key.
func (d *Dict) LookupKey(key string) (ID, bool) {
	id, ok := d.byKey[key]
	return id, ok
}

// Key returns the canonical key for an ID. It panics if the ID was not
// produced by this dictionary.
func (d *Dict) Key(id ID) string {
	if int(id) >= len(d.keys) {
		panic(fmt.Sprintf("hint: ID %d out of range (dict has %d entries)", id, len(d.keys)))
	}
	return d.keys[id]
}

// Set decodes the hint set for an ID.
func (d *Dict) Set(id ID) Set {
	s, err := Parse(d.Key(id))
	if err != nil {
		// Keys are produced by Set.Key, which cannot emit malformed fields.
		panic("hint: corrupt dictionary: " + err.Error())
	}
	return s
}

// Len returns the number of interned hint sets.
func (d *Dict) Len() int { return len(d.keys) }

// Keys returns all interned keys in ID order. The returned slice is a copy.
func (d *Dict) Keys() []string {
	out := make([]string, len(d.keys))
	copy(out, d.keys)
	return out
}

// Clone returns an independent copy of the dictionary that assigns the same
// IDs to the same keys.
func (d *Dict) Clone() *Dict {
	c := &Dict{
		byKey: make(map[string]ID, len(d.byKey)),
		keys:  make([]string, len(d.keys)),
	}
	for k, v := range d.byKey {
		c.byKey[k] = v
	}
	copy(c.keys, d.keys)
	return c
}

// Domains summarises the value domain observed for each hint type across all
// interned hint sets, as in the paper's Figure 2 ("value domain
// cardinality"). The result maps hint type to the sorted list of distinct
// values seen for it.
func (d *Dict) Domains() map[string][]string {
	vals := make(map[string]map[string]struct{})
	for _, key := range d.keys {
		s, err := Parse(key)
		if err != nil {
			continue
		}
		for _, f := range s {
			m, ok := vals[f.Type]
			if !ok {
				m = make(map[string]struct{})
				vals[f.Type] = m
			}
			m[f.Value] = struct{}{}
		}
	}
	out := make(map[string][]string, len(vals))
	for t, m := range vals {
		list := make([]string, 0, len(m))
		for v := range m {
			list = append(list, v)
		}
		sort.Strings(list)
		out[t] = list
	}
	return out
}
