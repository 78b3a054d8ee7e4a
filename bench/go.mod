module qusim/bench

go 1.22

require qusim v0.0.0

replace qusim => ../
