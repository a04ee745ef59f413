// The benchmark is a module of its own so that it carries its build file
// with it; it reaches the program through the replace directive only.
module multiedge/benchmark

go 1.24

require multiedge v0.0.0

replace multiedge => ../
