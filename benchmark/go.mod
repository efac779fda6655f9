module gpssn/benchmark

go 1.22

require gpssn v0.0.0

replace gpssn => ../
