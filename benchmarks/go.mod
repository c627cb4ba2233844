// The benchmark is a module of its own so that the simulator's go.mod,
// go build ./... and go test ./... neither see nor depend on it. The
// module path sits under xbgas/ because the harness drives the system
// through xbgas/internal/... and Go's internal rule is checked on import
// paths; the replace directive points at the repository root.
module xbgas/benchmarks

go 1.22

require xbgas v0.0.0

replace xbgas => ../
