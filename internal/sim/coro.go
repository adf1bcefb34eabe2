//go:build go1.23

// This file holds the kernel's only use of package iter. The build
// constraint raises this one file's language version to Go 1.23, where
// iter.Pull exists, while go.mod stays at 1.22: the benchmark module in
// cmd/dpml-perfbench pins go 1.22 and replaces this module, and a go.mod
// bump here would make its build demand a go.mod update. Once that module
// is raised, bump go.mod and drop the constraint.

package sim

import "iter"

// start makes body the proc's coroutine. The kernel's driver resumes it
// with p.resume; the proc hands control back through p.yield, which
// returns false once shutdown has called p.stop. A body that finishes,
// panics, or unwinds through errKilled ends in exit.
func (p *Proc) start(body func(*Proc)) {
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
}
