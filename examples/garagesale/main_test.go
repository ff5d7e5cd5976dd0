package main

// Example pins the example's stdout: it must not change when its wiring does.
func Example() {
	main()
	// Output:
	// deployed 48 sellers across 6 state index servers
	// q1: furniture items in Oregon: 20 (144ms, 6 hops)
	// q2: books under $100 in Washington: 8 items
	//    Fiction #3 in USA/WA/Vancouver: $33 (poor)
	//    Fiction #5 in USA/WA/Vancouver: $2 (good)
	//    Fiction #8 in USA/WA/Vancouver: $23 (fair)
	//    ...
	// q3: five cheapest like-new items in Portland (5 found):
	//    $25   Sofas #4               Furniture/Sofas
	//    $52   Audio #9               Electronics/Audio
	//    $81   Sofas #8               Furniture/Sofas
	//    $133  Sofas #6               Furniture/Sofas
	//    $147  Audio #4               Electronics/Audio
	// network totals: 72 messages, 42.9 KB
}
