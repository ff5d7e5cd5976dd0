// Package recover plants one recover() call.
package recover

func guard(f func()) {
	defer func() {
		_ = recover()
	}()
	f()
}
