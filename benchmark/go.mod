module mega/benchmark

go 1.22

require mega v0.0.0

replace mega => ../
