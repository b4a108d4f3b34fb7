module elasticore/benchmark

go 1.22

require elasticore v0.0.0

replace elasticore => ../
