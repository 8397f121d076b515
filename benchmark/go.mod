module cqrep/benchmark

go 1.24.0

require cqrep v0.0.0

replace cqrep => ../
