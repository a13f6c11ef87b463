module distcoll/bench

go 1.22

require distcoll v0.0.0

replace distcoll => ../
