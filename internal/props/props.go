package props

import (
	"fmt"
	"sort"
	"strings"
)

// TypeKey is the reserved property label that every TGraph entity must
// assign a value to whenever it exists (Definition 2.1).
const TypeKey = "type"

// field is one (interned key, value) pair.
type field struct {
	k Key
	v Value
}

// Props is a set of key-value pairs representing an assignment of
// values to the properties of a node or edge. It is an immutable value
// type over interned keys: the backing array is sorted by Key, shared
// freely (Clone is a header copy), and never mutated after
// construction — With/Without return fresh sets. The zero Props is the
// valid empty property set.
type Props struct {
	f []field // sorted by k, unique keys; immutable once published
}

// New builds a Props from alternating key, value pairs. It panics on an
// odd number of arguments or an unsupported value type (naming the
// offending key); it is intended for literals in tests and examples.
// A later duplicate key overwrites an earlier one, matching map
// literal semantics.
func New(pairs ...any) Props {
	if len(pairs)%2 != 0 {
		panic("props.New: odd number of arguments")
	}
	if len(pairs) == 0 {
		return Props{}
	}
	var b Builder
	b.Grow(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("props.New: key %v is not a string", pairs[i]))
		}
		switch v := pairs[i+1].(type) {
		case Value:
			b.Set(key, v)
		case string:
			b.Set(key, StringVal(v))
		case int:
			b.Set(key, Int(int64(v)))
		case int64:
			b.Set(key, Int(v))
		case uint:
			b.Set(key, Int(int64(v)))
		case uint64:
			if v > 1<<63-1 {
				panic(fmt.Sprintf("props.New: uint64 value %d for key %q overflows int64", v, key))
			}
			b.Set(key, Int(int64(v)))
		case float64:
			b.Set(key, Float(v))
		case float32:
			b.Set(key, Float(float64(v)))
		case bool:
			b.Set(key, Bool(v))
		case nil:
			b.Set(key, Nil())
		default:
			panic(fmt.Sprintf("props.New: unsupported value type %T for key %q", v, key))
		}
	}
	return b.Build()
}

// Len reports the number of properties in the set.
func (p Props) Len() int { return len(p.f) }

// Clone returns the property set itself: Props is immutable, so sharing
// the backing array is safe and free. The method survives for API
// symmetry with the old map-based runtime.
func (p Props) Clone() Props { return p }

// Equal reports whether two property sets assign the same values to the
// same labels. Sets sharing a backing array (the common case after
// Clone) compare in O(1).
func (p Props) Equal(o Props) bool {
	if len(p.f) != len(o.f) {
		return false
	}
	if len(p.f) == 0 || &p.f[0] == &o.f[0] {
		return true
	}
	for i, f := range p.f {
		if f.k != o.f[i].k || !f.v.Equal(o.f[i].v) {
			return false
		}
	}
	return true
}

// search returns the index of k in the field array, or the insertion
// point with ok=false. Property sets are small (a handful of fields),
// so a linear scan beats binary search in practice and keeps the loop
// branch-predictable.
func (p Props) search(k Key) (int, bool) {
	for i, f := range p.f {
		if f.k >= k {
			return i, f.k == k
		}
	}
	return len(p.f), false
}

// GetK returns the value for an interned key and whether it is present.
func (p Props) GetK(k Key) (Value, bool) {
	if i, ok := p.search(k); ok {
		return p.f[i].v, true
	}
	return Value{}, false
}

// Get returns the value for label k and whether it is present. A label
// never interned anywhere in the process is a guaranteed miss and does
// not grow the dictionary.
func (p Props) Get(k string) (Value, bool) {
	key, ok := LookupKey(k)
	if !ok {
		return Value{}, false
	}
	return p.GetK(key)
}

// GetString returns the string value for label k, or "" if absent or of
// another kind.
func (p Props) GetString(k string) string {
	v, _ := p.Get(k)
	s, _ := v.AsString()
	return s
}

// GetInt returns the integer value for label k, or 0 if absent or of
// another kind.
func (p Props) GetInt(k string) int64 {
	v, _ := p.Get(k)
	n, _ := v.AsInt()
	return n
}

// Type returns the value of the reserved type property.
func (p Props) Type() string {
	v, ok := p.GetK(TypeK)
	if !ok {
		return ""
	}
	s, _ := v.AsString()
	return s
}

// WithK returns a copy of p with interned key k set to v.
func (p Props) WithK(k Key, v Value) Props {
	i, ok := p.search(k)
	out := make([]field, len(p.f), len(p.f)+1)
	copy(out, p.f)
	if ok {
		out[i].v = v
		return Props{f: out}
	}
	out = append(out, field{})
	copy(out[i+1:], out[i:])
	out[i] = field{k: k, v: v}
	return Props{f: out}
}

// With returns a copy of p with label k set to v.
func (p Props) With(k string, v Value) Props { return p.WithK(KeyOf(k), v) }

// WithoutK returns a copy of p with interned key k removed.
func (p Props) WithoutK(k Key) Props {
	i, ok := p.search(k)
	if !ok {
		return p
	}
	if len(p.f) == 1 {
		return Props{}
	}
	out := make([]field, 0, len(p.f)-1)
	out = append(out, p.f[:i]...)
	out = append(out, p.f[i+1:]...)
	return Props{f: out}
}

// Without returns a copy of p with label k removed.
func (p Props) Without(k string) Props {
	key, ok := LookupKey(k)
	if !ok {
		return p
	}
	return p.WithoutK(key)
}

// Range calls fn for every property in ascending Key order (an
// arbitrary but fixed per-process order) until fn returns false.
func (p Props) Range(fn func(Key, Value) bool) {
	for _, f := range p.f {
		if !fn(f.k, f.v) {
			return
		}
	}
}

// Keys returns the property labels sorted lexically.
func (p Props) Keys() []string {
	if len(p.f) == 0 {
		return nil
	}
	keys := make([]string, len(p.f))
	for i, f := range p.f {
		keys[i] = f.k.Name()
	}
	sort.Strings(keys)
	return keys
}

// ToMap converts the set to a plain map, for interchange and tests.
func (p Props) ToMap() map[string]Value {
	if len(p.f) == 0 {
		return nil
	}
	m := make(map[string]Value, len(p.f))
	for _, f := range p.f {
		m[f.k.Name()] = f.v
	}
	return m
}

// FromMap builds a Props from a plain map.
func FromMap(m map[string]Value) Props {
	if len(m) == 0 {
		return Props{}
	}
	var b Builder
	b.Grow(len(m))
	for k, v := range m {
		b.Set(k, v)
	}
	return b.Build()
}

// Fingerprint returns a canonical string encoding of the property set,
// usable as a grouping/equality key (e.g. for coalescing via hashing).
// The encoding sorts by label, so it is stable across processes.
func (p Props) Fingerprint() string {
	if len(p.f) == 0 {
		return ""
	}
	var b strings.Builder
	for _, k := range p.Keys() {
		v, _ := p.Get(k)
		kind, payload := v.Encode()
		fmt.Fprintf(&b, "%s\x00%d\x00%s\x01", k, kind, payload)
	}
	return b.String()
}

// String renders the property set in the paper's "k=v, k=v" notation
// with sorted keys.
func (p Props) String() string {
	var b strings.Builder
	for i, k := range p.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		v, _ := p.Get(k)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v.String())
	}
	return b.String()
}

// Builder assembles a Props field by field; the zero Builder is ready
// to use. Set order is irrelevant (a later Set of the same key wins)
// and Build sorts once, so decode loops and aggregators pay one sort
// per property set instead of per-field map overhead.
type Builder struct {
	f []field
}

// Grow pre-allocates capacity for n fields.
func (b *Builder) Grow(n int) {
	if cap(b.f)-len(b.f) < n {
		f := make([]field, len(b.f), len(b.f)+n)
		copy(f, b.f)
		b.f = f
	}
}

// SetK adds or replaces the field for interned key k.
func (b *Builder) SetK(k Key, v Value) {
	for i := range b.f {
		if b.f[i].k == k {
			b.f[i].v = v
			return
		}
	}
	b.f = append(b.f, field{k: k, v: v})
}

// Set adds or replaces the field for label k.
func (b *Builder) Set(k string, v Value) { b.SetK(KeyOf(k), v) }

// setIfAbsentK adds the field only if the key is not yet set.
func (b *Builder) setIfAbsentK(k Key, v Value) {
	for i := range b.f {
		if b.f[i].k == k {
			return
		}
	}
	b.f = append(b.f, field{k: k, v: v})
}

// Len reports how many fields the builder holds.
func (b *Builder) Len() int { return len(b.f) }

// Build finalises the set. The builder is reset and may be reused; the
// returned Props owns the field array exclusively.
func (b *Builder) Build() Props {
	if len(b.f) == 0 {
		return Props{}
	}
	f := b.f
	b.f = nil
	// Insertion sort: property sets are small, and this runs on every
	// Build in the zoom hot loops.
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j].k < f[j-1].k; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
	return Props{f: f}
}
