module github.com/repro/sift/benchmark

go 1.22

require github.com/repro/sift v0.0.0

replace github.com/repro/sift => ../
