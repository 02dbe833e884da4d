module columnsgd/benchmark

go 1.22

require columnsgd v0.0.0

replace columnsgd => ../
