module resilient/cmd/bench

go 1.22

require resilient v0.0.0

replace resilient => ../..
