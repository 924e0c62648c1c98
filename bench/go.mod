module orcf/bench

go 1.24

require orcf v0.0.0

replace orcf => ../
