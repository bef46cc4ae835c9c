#include "bench.hh"

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
