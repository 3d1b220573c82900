package core

// The rest of the emission table's core sources, so that the table's drift
// check finds every core row in this fixture.

func (d Deps) ObserveRx()             {}
func (p *Protocol) applyRole()        {}
func (p *Protocol) initDetectors()    {}
func (p *Protocol) verify()           {}
func (p *Protocol) sampleQueues()     {}
func (p *Protocol) observeAdmission() {}
func (p *Protocol) observeSync()      {}
func (p *Protocol) Rejoin()           {}
