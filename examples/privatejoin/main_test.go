package main

// Example pins the example's stdout: it must not change when its wiring does.
func Example() {
	main()
	// Output:
	// employees with >$5000 contributions to front organizations (8):
	//   Employee 10 ($6000)
	//   Employee 12 ($6800)
	//   Employee 15 ($8000)
	//   Employee 17 ($8800)
	//   Employee 20 ($10000)
	//   Employee 22 ($10800)
	//   Employee 25 ($12000)
	//   Employee 27 ($12800)
	//
	// plan itinerary:
	//   agency:1  bind     urn:IRS:TargetCorp-Contributions
	//   irs:1     data     http://irs:1/returns
	//   irs:1     bind     urn:State:FrontOrgs
	//   irs:1     reduce   select
	//   state:1   data     http://state:1/fronts
	//   state:1   reduce   project
	//
	// disclosure: agency saw 8 projected rows; State Dept saw 22 filtered IRS rows (of 30 total); the watch list never left the State Dept
}
