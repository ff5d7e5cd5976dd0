package main

// Example pins the example's stdout: it must not change when its wiring does.
func Example() {
	main()
	// Output:
	// CDs under $10 carrying a favorite song (1 found, 138ms, 4 hops):
	//   Giant Steps ($9) — Naima
	// network: 5 messages, 6577 bytes
}
