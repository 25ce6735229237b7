module objectbase/benchmark

go 1.24

require objectbase v0.0.0

replace objectbase => ../
