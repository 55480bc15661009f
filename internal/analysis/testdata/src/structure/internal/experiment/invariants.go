package experiment

// judge is the registry: building violations here is the rule.
func judge(tb *Testbed) []Violation {
	return []Violation{{Invariant: "client-integrity"}, Violation{Invariant: "single-transmitter"}}
}
