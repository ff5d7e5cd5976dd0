package algebra

// Equal reports whether two operator subtrees are structurally identical:
// same kinds, resources, predicates, parameters, annotations, payloads and
// children. Tests hold trees to it: a round trip, a clone, Fingerprint's
// agreement.
//
// Payload documents compare by identity first (the common case: frozen items
// aliased from a shared collection or wire buffer) and fall back to canonical
// XML equality, so two plans carrying independently parsed copies of the same
// data still compare equal.
func Equal(a, b *Node) bool {
	switch {
	case a == nil && b == nil:
		return true
	case a == nil || b == nil:
		return false
	}
	if a.Kind != b.Kind ||
		a.URL != b.URL || a.PathExp != b.PathExp || a.URN != b.URN ||
		a.As != b.As ||
		a.LeftKey != b.LeftKey || a.RightKey != b.RightKey ||
		a.LeftName != b.LeftName || a.RightName != b.RightName ||
		a.N != b.N || a.OrderBy != b.OrderBy || a.Desc != b.Desc {
		return false
	}
	if (a.Pred == nil) != (b.Pred == nil) {
		return false
	}
	if a.Pred != nil && a.Pred.String() != b.Pred.String() {
		return false
	}
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	if len(a.Annotations) != len(b.Annotations) {
		return false
	}
	for k, v := range a.Annotations {
		if bv, ok := b.Annotations[k]; !ok || bv != v {
			return false
		}
	}
	if len(a.Docs) != len(b.Docs) {
		return false
	}
	for i := range a.Docs {
		if a.Docs[i] == b.Docs[i] {
			continue
		}
		if a.Docs[i].ByteSize() != b.Docs[i].ByteSize() ||
			a.Docs[i].String() != b.Docs[i].String() {
			return false
		}
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
