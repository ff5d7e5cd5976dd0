package algebra

// PredicateWork reports how many times the predicate parser and the predicate
// renderer have run in this process, for tests outside the package that show
// a hop does neither.
func PredicateWork() (parses, renders int64) { return predParses.Load(), predRenders.Load() }
