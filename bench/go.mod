module opprentice/bench

go 1.22

require opprentice v0.0.0

replace opprentice => ../
