// Package state plants one unlisted package-level var beside the kinds the
// state rule exempts. The rule's own test lists "listed" and a "gone" that
// nothing declares.
package state

import (
	"errors"
	"sync"
)

var ErrSentinel = errors.New("state: exempt sentinel")

var pool = sync.Pool{New: func() any { return new(int) }}

var (
	ptrPool  = &sync.Pool{}
	typePool sync.Pool
	_        = pool
)

var listed = 1

var unlisted = map[string]string{}
