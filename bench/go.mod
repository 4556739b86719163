module pbmg/bench

go 1.24

require pbmg v0.0.0

replace pbmg => ../
