package tenant

// export_test.go holds the accessors only this package's tests read.

// Tenants returns the arbitrated tenants in add order.
func (a *Arbiter) Tenants() []*Tenant { return a.tenants }

// AllocatedTotal returns the number of cores currently held across all
// tenant cgroups.
func (a *Arbiter) AllocatedTotal() int {
	n := 0
	for _, t := range a.tenants {
		n += t.CGroup.CPUs().Count()
	}
	return n
}
