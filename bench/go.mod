module rbft/bench

go 1.22

require rbft v0.0.0

replace rbft => ../
