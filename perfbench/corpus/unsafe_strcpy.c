/* fixwrites error population, item 7: an unbounded strcpy into a fixed
   global — nothing relates strlen(name) to NAME_MAX. */

#define NAME_MAX 64

char progname[NAME_MAX];

void set_progname(char *name)
    requires (is_nullt(name))
    modifies (progname)
{
    strcpy(progname, name);
}
