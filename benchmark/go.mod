module ifdb/benchmark

go 1.22

require ifdb v0.0.0

replace ifdb => ../
