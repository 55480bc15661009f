package experiment

// Plan mimics a run's declaration; Run is the one loop that builds and
// starts a testbed.
type Plan struct{ Opts Options }

func (p Plan) Run() (*Testbed, error) {
	tb := Build(p.Opts)
	return tb, tb.StartSTTCP()
}
