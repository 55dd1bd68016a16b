module rowsort/benchmark

go 1.24

require rowsort v0.0.0

replace rowsort => ../
