package main

// Example pins the example's stdout: it must not change when its wiring does.
func Example() {
	main()
	// Output:
	// lab fly-neuro-lab   hosts 50 experiments, interest area [Coelomata/Protostomia/Drosophila-Melanogaster, Neural]
	// lab rodent-lab      hosts 50 experiments, interest area [Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia, Connective] + [Coelomata/Deuterostomia/Mammalia/Eutheria/Rodentia, Muscle]
	// lab human-lab       hosts 50 experiments, interest area [Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens, *]
	//
	// query interest area: [Coelomata/Deuterostomia/Mammalia, Muscle/Cardiac]
	//   overlaps fly-neuro-lab  : false
	//   overlaps rodent-lab     : true
	//   overlaps human-lab      : true
	//
	// 19 cardiac-muscle experiments returned (100ms):
	//   GENE0392   Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens human-lab
	//   GENE0200   Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens human-lab
	//   GENE0467   Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens human-lab
	//   GENE0319   Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens human-lab
	//   GENE0308   Coelomata/Deuterostomia/Mammalia/Primates/Homo-Sapiens human-lab
	//   ...
	//
	// itinerary (from signed provenance):
	//   nih:9020         bind     urn:InterestArea:(Coelomata.Deuterostomia.Mammalia,Muscle.Cardiac)
	//   nih:9020         optimize push-select
	//   human-lab:9020   data     human-lab:9020/miame
	//   human-lab:9020   reduce   select
	//   rodent-lab:9020  data     rodent-lab:9020/miame
	//   rodent-lab:9020  reduce   union
	// fly lab visited: false (paper: "can ignore the first site")
}
