// The benchmark is a module of its own because the contract it is written
// to asks for that: a benchmark that has to be compiled is a package of its
// own, with its own build file, inside the benchmark's directory. The
// module path sits under meshgnn/ so the benchmark may import
// meshgnn/internal/... packages. The repository's go build ./... and
// go test ./... therefore do not reach it; run.sh builds it, and
// "cd benchmark && go test ." runs its tests.
module meshgnn/benchmark

go 1.24

require meshgnn v0.0.0

replace meshgnn => ../
